package core

import (
	"fmt"
	"math"

	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
)

// NewParticleDecomposition prepares a session of the c = 1 degenerate
// case of the CA algorithm, NewAllPairs at c = 1: every processor is its
// own team and buffers shift point-to-point around the ring, exactly
// Plimpton's particle decomposition with pairwise shifting.
func NewParticleDecomposition(ps []phys.Particle, pr Params) (*Session, error) {
	pr.C = 1
	return NewAllPairs(ps, pr)
}

// NewForceDecomposition prepares a session of the c = √p extreme of the
// CA algorithm, NewAllPairs at c = √p: Plimpton's force decomposition,
// where each processor computes one n/√p × n/√p block of the interaction
// matrix with a single shift step. P must be a perfect square.
func NewForceDecomposition(ps []phys.Particle, pr Params) (*Session, error) {
	root := int(math.Round(math.Sqrt(float64(pr.P))))
	if root*root != pr.P {
		return nil, fmt.Errorf("core: force decomposition needs a square p, got %d", pr.P)
	}
	pr.C = root
	return NewAllPairs(ps, pr)
}

// NewNaiveAllGather prepares a session of the textbook particle
// decomposition of Section II-B from the particle set ps, which it
// copies: each processor owns n/p particles and sends them to every
// other processor each timestep, paying S = O(p) messages and W = O(n)
// words on the critical path. It is the baseline whose communication
// the CA algorithm improves upon.
//
// It runs on the step driver as one-rank teams (c = 1: the allreduce
// sends nothing) on ringMoves, an all-gather around the ring, with the
// pairing everyTeam.
func NewNaiveAllGather(ps []phys.Particle, pr Params) (*Session, error) {
	n := len(ps)
	pr.C = 1
	if err := pr.validateCommon(n); err != nil {
		return nil, err
	}
	if n%pr.P != 0 {
		return nil, fmt.Errorf("core: naive decomposition needs p | n, got n=%d p=%d", n, pr.P)
	}
	cg, err := newCommGrid(pr.P, 1)
	if err != nil {
		return nil, err
	}
	npr := n / pr.P
	perS, perW := directBounds(n, pr)
	owned := append([]phys.Particle(nil), ps...)

	return newSession(n, pr, perS, perW, cg, func(rk *rank) *shiftLoop {
		l, _, r := newShiftLoop(rk, &pr, cg)
		l.moves = ringMoves(pr.P, r)
		l.pairing = &everyTeam{blocks: make([][]phys.Particle, pr.P)}
		// The frame names the block's owner; everyTeam copies each block
		// on arrival and keeps no view.
		l.x = rk.newXfer(r, false)
		l.mine = owned[r*npr : (r+1)*npr : (r+1)*npr]
		return l
	}), nil
}

// ringMoves is the all-gather as a move list for rank r of p: an open
// ring whose skew leaves the rank's own block in place and whose p − 1
// moves shift every block one rank east, so that each block visits every
// rank once.
func ringMoves(p, r int) moves {
	hops := make([]hop, p)
	hops[0] = hop{r, r}
	for i := 1; i < p; i++ {
		hops[i] = hop{topo.Mod(r+1, p), topo.Mod(r-1, p)}
	}
	return moves{last: p - 1, hops: hops}
}

// everyTeam is the naive baseline's pairing: a rank keeps a copy of
// every team's block — the O(n) memory per rank the paper charges this
// algorithm — and sweeps them all at once. update copies the visiting
// block into the slot of the team its frame names; flush sweeps the
// slots in rank order with one kernel call, so each target folds the
// teams' blocks in the same order whatever order they arrived in.
type everyTeam struct {
	blocks [][]phys.Particle // by team
}

func (e *everyTeam) update(l *shiftLoop, _ int) {
	src, visiting := l.x.view()
	e.blocks[src] = append(e.blocks[src][:0], visiting...)
}

func (e *everyTeam) flush(l *shiftLoop) {
	l.st.SetPhase(trace.Compute)
	l.counted(l.pool.AccumulateBlocks(l.kern, l.mine, e.blocks, l.pr.Box))
}

func (*everyTeam) integrated(_ *shiftLoop, mine []phys.Particle) ([]phys.Particle, error) {
	return mine, nil
}
