package core

import (
	"fmt"
	"math"

	"repro/internal/phys"
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
// other processor each timestep (via the ring allgather), paying
// S = O(p) messages and W = O(n) words on the critical path. It is the
// baseline whose communication the CA algorithm improves upon.
func NewNaiveAllGather(ps []phys.Particle, pr Params) (*Session, error) {
	n := len(ps)
	pr.C = 1
	if err := pr.validateCommon(n); err != nil {
		return nil, err
	}
	if n%pr.P != 0 {
		return nil, fmt.Errorf("core: naive decomposition needs p | n, got n=%d p=%d", n, pr.P)
	}
	npr := n / pr.P
	perS, perW := directBounds(n, pr)
	owned := append([]phys.Particle(nil), ps...)

	return newSession(n, pr, perS, perW, func(rk *rank) rankLoop {
		r := rk.world.Rank()
		mine := owned[r*npr : (r+1)*npr : (r+1)*npr]
		step := func() error {
			rk.st.SetPhase(trace.Shift)
			blocks := rk.world.Allgather(phys.EncodeSlice(mine))
			rk.st.SetPhase(trace.Compute)
			phys.ClearForces(mine)
			for _, b := range blocks {
				others, err := phys.DecodeSlice(b)
				if err != nil {
					return err
				}
				pr.Law.AccumulateIn(mine, others, pr.Box)
			}
			return phys.Step(mine, pr.Box, pr.DT)
		}
		return rankLoop{step, func() (int, []phys.Particle, bool) { return r, mine, true }}
	}), nil
}
