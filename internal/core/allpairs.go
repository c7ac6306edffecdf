package core

import (
	"fmt"

	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
)

// AllPairs runs the communication-avoiding all-pairs interaction
// algorithm (Algorithm 1 of the paper) for pr.Steps timesteps on pr.P
// goroutine ranks with replication factor pr.C, starting from the
// particle set ps. It returns the final particles sorted by ID and the
// aggregated communication report. It is NewAllPairs advanced once.
func AllPairs(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
	s, err := NewAllPairs(ps, pr)
	return once(s, err, pr.Steps)
}

// NewAllPairs prepares a session of Algorithm 1 from the particle set
// ps, which it copies.
//
// Requirements: c² must divide p (so the shift loop runs an integral
// p/c² steps) and the number of teams p/c must divide n (so teams own
// equal subsets, the paper's load-balance assumption).
func NewAllPairs(ps []phys.Particle, pr Params) (*Session, error) {
	n := len(ps)
	if err := pr.validateCommon(n); err != nil {
		return nil, err
	}
	if pr.P%(pr.C*pr.C) != 0 {
		return nil, fmt.Errorf("core: all-pairs needs c² | p, got p=%d c=%d", pr.P, pr.C)
	}
	T := pr.Teams()
	if n%T != 0 {
		return nil, fmt.Errorf("core: all-pairs needs teams | n, got n=%d teams=%d", n, T)
	}
	cg, err := newCommGrid(pr.P, pr.C)
	if err != nil {
		return nil, err
	}
	npt := n / T // particles per team
	perS, perW := directBounds(n, pr)
	// Team t's leader owns the t-th contiguous block of the ID-ordered
	// input; the blocks never grow, so they may share one copy.
	owned := append([]phys.Particle(nil), ps...)

	return newSession(n, pr, perS, perW, func(rk *rank) rankLoop {
		l, row, col := newShiftLoop(rk, &pr, cg)
		l.moves = allPairsMoves(T, pr.C, row, col)
		l.pairing = newEveryBlock(l.last, npt)
		// A block shorter than a batch waits for others, past the
		// rank's next move; a longer one is swept on arrival.
		l.x = newXfer(pr, -1, npt < sweepBatch)
		if l.leader {
			l.mine = owned[col*npt : (col+1)*npt : (col+1)*npt]
		}
		return rankLoop{l.step, l.holds}
	}), nil
}

// allPairsMoves is Algorithm 1's move list for the rank at (row, col)
// of the c × T grid. Ring neighbours are constants of the run: row k
// skews east by k, then every row shifts east by c, p/c² times. The
// ring closes — (p/c²)·c = T — so the offsets a rank visits cover the
// residue class of its row whichever position a walk starts from.
func allPairsMoves(T, c, row, col int) moves {
	return moves{
		closed: true,
		last:   T / c,
		skew:   hop{topo.Mod(col+row, T), topo.Mod(col-row, T)},
		shift:  hop{topo.Mod(col+c, T), topo.Mod(col-c, T)},
	}
}

// sweepBatch is the number of gathered visiting particles at which a
// rank sweeps them into its replica (everyBlock). A constant of the
// code, not a knob: it is read off what a sweep costs beyond its pairs,
// which no input changes. Hot, the kernel has almost nothing of that
// kind left — ns/pair of one sweep for 8 targets against the sources it
// covers (phys.BenchmarkAccumulateBlocks, AVX2, the 2-vCPU 2.1 GHz Xeon
// this repository is measured on):
//
//	sources   8    16    32    64   128   256
//	ns/pair  2.0   1.8   1.85  1.85  1.9  1.9
//
// (3.5, 2.7, 2.3, 2.1, 2.0, 2.0 while the lanes were still filled by
// scalar stores, see lanes4.load in internal/phys). What is left sits
// around the kernel: two clock reads for the Compute span, a pool
// dispatch, the counters, and caches the exchange in between has
// cooled. CPU µs/step of 64 ranks with 8-particle blocks, 16 hops a
// step, on 2 Ps (BenchmarkShiftLoopSmallBlocks, medians of ten) against
// the batch:
//
//	sweepBatch    1    16    32    64   128
//	CPU µs/step  689   617   611   579   575
//
// 128 is where it is flat, and on that shape the whole step in one
// sweep; more would only raise the visiting particles a rank may
// reference.
const sweepBatch = 128

// everyBlock is Algorithm 1's pairing: every visiting block interacts
// with the replica, and nothing follows the integration. The blocks are
// gathered, not applied on arrival: update records the view of the held
// buffer — a slice header, no copy — and the rank sweeps what it has
// gathered when that reaches sweepBatch particles and once more when
// the walk ends (flush). A block of sweepBatch particles or more is
// therefore swept at once, alone; many short ones share one kernel
// call and one Compute span. Each target still folds its sources in
// arrival order, so the forces are those of a sweep per block, bit for
// bit. Reading a view that late is legal on the closed ring only, and
// only on a transport built to keep views (the reuse discipline in
// transport.go), which NewAllPairs asks for when n/T < sweepBatch; a
// rank references at most sweepBatch + n/T visiting particles beyond
// the buffer it holds.
type everyBlock struct {
	gathered [][]phys.Particle // since the last sweep; never grows
	n        int               // particles in gathered
}

// newEveryBlock sizes the list for the most blocks a sweep can cover:
// all T/c of a step, or as many n/T-particle blocks as reach sweepBatch.
func newEveryBlock(blocksPerStep, blockLen int) *everyBlock {
	perSweep := min(blocksPerStep, (sweepBatch+blockLen-1)/blockLen)
	return &everyBlock{gathered: make([][]phys.Particle, 0, perSweep)}
}

func (e *everyBlock) update(l *shiftLoop) {
	_, visiting := l.x.view()
	e.gathered = append(e.gathered, visiting)
	if e.n += len(visiting); e.n >= sweepBatch {
		e.flush(l)
	}
}

func (e *everyBlock) flush(l *shiftLoop) {
	if len(e.gathered) == 0 {
		return
	}
	l.st.SetPhase(trace.Compute)
	l.counted(l.pool.AccumulateBlocks(l.kern, l.replica, e.gathered, l.pr.Box))
	e.gathered, e.n = e.gathered[:0], 0
}

func (*everyBlock) integrated(_ *shiftLoop, mine []phys.Particle) ([]phys.Particle, error) {
	return mine, nil
}
