package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// This file is the one step driver: Session, the harness every
// algorithm runs on, and shiftLoop, the one timestep body that executes
// Algorithms 1 and 2 and the naive baseline from a per-rank plan.

// rank is what the harness lends a loop: the world communicator, its
// accounting record, and the force pool, which tiles an accumulation by
// disjoint target blocks — bitwise-identical for any worker count. The
// pool and its attribution are the current Advance's: its workers are
// goroutines, and none outlives the call.
type rank struct {
	world *comm.Comm
	st    *trace.Stats
	pool  *phys.Pool
	po    poolObs
	// rec is the transport of a step that is only evaluated, with no
	// world (Session.Plan); nil on a run.
	rec *recorder
}

// Session is an algorithm's parallel run that outlives its Advance
// calls. The constructors (NewAllPairs, NewCutoff, ...) validate the
// parameters and lay out the decomposition — the grid, the schedule, the
// particles' first owners — on the caller's goroutine, starting nothing.
// The first Advance builds the comm world and, inside each rank's
// goroutine, the rank's shiftLoop; the session keeps both, the loops with
// every buffer they have grown (the team's particles, exchange buffers,
// allreduce payloads, migration stock), so a later Advance costs its
// steps and not a rebuild. Between calls it is memory only: the rank
// goroutines and the force pools' workers start and stop with each
// Advance. A failed Advance leaves the session dead.
type Session struct {
	n          int
	pr         Params
	impl       string  // force-kernel implementation of the compute phase
	perS, perW float64 // per-step lower bounds
	cg         *commGrid
	build      func(*rank) *shiftLoop
	rt         *comm.Runtime // nil until the first Advance
	loops      []*shiftLoop  // by world rank; nil until the rank's first Advance
	out        []phys.Particle
}

// newSession wraps an algorithm's per-rank builder in a session of
// n particles on the grid cg; perS and perW are the run's per-step
// lower bounds. The force-kernel implementation the compute phase runs,
// named in the report and the metrics, is the law's (phys.Kernel.Impl).
func newSession(n int, pr Params, perS, perW float64, cg *commGrid, build func(*rank) *shiftLoop) *Session {
	return &Session{n: n, pr: pr, impl: pr.Law.Kernel().Impl(), perS: perS, perW: perW, cg: cg, build: build, loops: make([]*shiftLoop, pr.P)}
}

// Advance runs every rank's loop for steps timesteps and gathers the n
// particles sorted by ID, with the report of these steps alone. It owns
// everything around a step that is not the algorithm: the flight
// recorder, the phase clock, the per-step metrics, the force pool and
// its attribution, the live S/W and bounds probe and the deposit of the
// final state, which the world merges across processes in a distributed
// run so every process gathers all of it. The returned slice is the
// session's: the next Advance overwrites it.
func (s *Session) Advance(steps int) ([]phys.Particle, *trace.Report, error) {
	if steps < 0 {
		return nil, nil, fmt.Errorf("core: negative step count %d", steps)
	}
	if s.rt == nil {
		rt, err := comm.NewRuntime(s.pr.P, s.pr.Options, s.pr.Proc)
		if err != nil {
			return nil, nil, err
		}
		s.rt = rt
	}
	pb := newProbe(s.pr, s.impl, s.perS, s.perW, steps)
	report, results, err := s.rt.Run(func(world *comm.Comm) error {
		l := s.loops[world.Rank()]
		if l == nil {
			l = s.build(&rank{world: world, st: world.Stats()})
			s.loops[world.Rank()] = l
		}
		st, mx := l.st, world.Metrics()
		l.pool = phys.NewPool(s.pr.WorkersPerRank())
		defer l.pool.Close()
		l.po = newPoolObs(l.pool, st, mx)

		st.StartTiming()
		defer st.StopTiming()

		// Per-step metrics: rank 0 records each step's wall time (the
		// loops are lock-step, so one rank's cadence stands for the
		// run's), and every rank publishes its step's traffic and compute
		// time to the comm matrix, from which trace.Measure reads the
		// live S, W and compute imbalance by the report's definition.
		// Handles are nil — and the calls no-ops — when the run is not
		// observed.
		stepWall := mx.Histogram("step.wall_ns")
		stepsDone := mx.Counter("step.count")
		observed := mx != nil

		for step := 0; step < steps; step++ {
			var t0 time.Time
			if observed {
				t0 = time.Now()
			}
			computeBefore := st.ByPhase[trace.Compute].Time
			if err := l.step(); err != nil {
				return err
			}
			st.SetPhase(trace.Other)
			l.po.stampStep()
			world.Publish(st.ByPhase[trace.Compute].Time - computeBefore)
			if observed && world.Rank() == 0 {
				wall := time.Since(t0)
				stepWall.Observe(wall.Nanoseconds())
				stepsDone.Inc()
				pb.stampStep(st, wall)
			}
		}
		if l.leader {
			world.Deposit(l.slot, l.mine)
		}
		return nil
	})
	if report != nil {
		// For the footer's kernel line and measured-over-bound ratios.
		report.KernelImpl = s.impl
		report.SLowerBound = s.perS * float64(steps)
		report.WLowerBound = s.perW * float64(steps)
	}
	pb.finish()
	if err != nil {
		return nil, report, err
	}
	s.out = gather(s.out, results, s.n)
	return s.out, report, nil
}

// gather flattens the slot-keyed deposits of n particles into out,
// reusing its storage, sorted by ID. The sets phys.Init* build are
// numbered 0..n-1, so there a particle's index is its ID and the layout
// is one pass; sorting instead was most of what an Advance cost beyond
// its steps (0.6 ms of 4096 particles). Any other numbering is sorted,
// which makes the slot iteration order irrelevant.
func gather(out []phys.Particle, deposits map[int][]phys.Particle, n int) []phys.Particle {
	const unset = ^uint32(0) // never an ID below n
	out = slices.Grow(out[:0], n)[:n]
	for i := range out {
		out[i].ID = unset
	}
	placed := 0
	for _, ps := range deposits {
		for _, p := range ps {
			if int64(p.ID) >= int64(n) || out[p.ID].ID != unset {
				return sortedByID(out, deposits)
			}
			out[p.ID] = p
			placed++
		}
	}
	if placed != n {
		return sortedByID(out, deposits)
	}
	return out
}

// sortedByID is gather for any numbering.
func sortedByID(out []phys.Particle, deposits map[int][]phys.Particle) []phys.Particle {
	out = out[:0]
	for _, ps := range deposits {
		out = append(out, ps...)
	}
	phys.SortByID(out)
	return out
}

// Tags for user-level messages. Shift tags encode the move index so a
// mismatched schedule fails loudly.
const (
	tagSkew = iota
	tagMigrate
	tagShift = 1000
)

// hop is one move of a rank's exchange buffer along its ring: ship to
// ring rank to, adopt the buffer arriving from ring rank from. A move is
// one vector for the whole ring, so to is the rank itself exactly when
// from is: the buffer stays put.
type hop struct{ to, from int }

// moves is one rank's move list for a timestep. Move 0 is the skew,
// moves 1..last are the shifts; after move i the rank holds the buffer
// of ring position i.
type moves struct {
	// closed says the ring closes: positions 0 and last hold the same
	// block. Algorithm 1's does (s·c ≡ 0 mod T), the cutoff window's does
	// not. It decides which positions the walk computes on (walk).
	closed bool
	last   int
	// hops lists every move. Nil for Algorithm 1, whose moves have a
	// closed form: one skew hop, one shift hop repeated.
	hops        []hop
	skew, shift hop
}

// move returns hop i and the tag its messages carry.
func (m *moves) move(i int) (hop, int) {
	switch {
	case m.hops != nil:
		return m.hops[i], tagShift + i
	case i == 0:
		return m.skew, tagSkew
	default:
		return m.shift, tagShift + i - 1
	}
}

// pairing is what a plan leaves to the algorithm: which visiting blocks
// interact with the rank's copy of its team, and what follows the
// integration.
type pairing interface {
	// update applies the buffer the rank holds at ring position at
	// (l.x.view) to l.mine — under the Compute phase, booked with
	// l.counted — or skips a block that must not interact. On a closed
	// ring, and a transport built to keep views (newXfer), it may instead
	// keep the view and apply it later, no later than flush.
	update(l *shiftLoop, at int)
	// flush runs when the walk has ended, before the allreduce: it
	// applies whatever update has kept back.
	flush(l *shiftLoop)
	// integrated runs on every rank once it has integrated mine and
	// returns the team's particles the rank holds from here on.
	integrated(l *shiftLoop, mine []phys.Particle) ([]phys.Particle, error)
}

// shiftLoop is the timestep of Algorithms 1 and 2 — skew,
// shift-and-update, force allreduce, integrate — as one rank executes
// it from its plan: its place on the replication grid, the
// communicators of its ring and its team, its move list and the
// algorithm's pairing. The paper's algorithms broadcast the team from
// its leader at the start of a step and reduce the forces to it at the
// end; here every member of a team keeps a copy of the team's particles
// and integrates it, so the step's one team collective is the
// allreduce of the forces, and the copies stay equal bit for bit.
// The fast-path state is built once per session — the law compiled to
// a specialized kernel (kind/cutoff/softening resolved outside the pair
// loop), a transport that retains its buffers across steps and Advance
// calls — and the harness's pool parks its workers between batches, so
// the steady-state timestep allocates nothing.
type shiftLoop struct {
	*rank
	moves
	// slot is the rank's team: its rank on the ring, the source frame of
	// the buffers it loads and the deposit slot of its leader.
	slot   int
	leader bool
	// ring is the rank's replication layer, indexed by team: exchange
	// buffers shift along it, and particles migrate along it. team is
	// its column, leader first: the allreduce group.
	ring, team *comm.Comm
	pairing    pairing
	pr         *Params
	kern       phys.Kernel
	x          xfer
	pairs      *obs.Counter // nil, and Add a no-op, on unobserved runs
	// mine is the rank's copy of its team's particles, the same bits on
	// every member of the team; the leader's is deposited at the end.
	mine []phys.Particle
}

// newShiftLoop fills in what follows from the run's parameters and the
// rank's place (row, col) on cg; the caller adds the moves, the pairing,
// the transport and the team's particles.
func newShiftLoop(rk *rank, pr *Params, cg *commGrid) (l *shiftLoop, row, col int) {
	if rk.rec != nil {
		row, col = rk.rec.vr, rk.rec.slot
		return &shiftLoop{rank: rk, pr: pr, slot: col, leader: row == 0}, row, col
	}
	row, col = cg.Coord(rk.world.Rank())
	return &shiftLoop{
		rank: rk, pr: pr, slot: col, leader: row == 0,
		ring: rk.world.Sub(cg.rows[row]), team: rk.world.Sub(cg.teams[col]),
		kern:  pr.Law.Kernel(),
		pairs: rk.world.Metrics().Counter("compute.pairs"),
	}, row, col
}

func (l *shiftLoop) step() error {
	// (1) Clear the team's force accumulators and copy its particles,
	// St, to the exchange buffer.
	l.st.SetPhase(trace.Skew)
	phys.ClearForces(l.mine)
	l.x.loadExchange(l.mine)
	// (2) Skew: move 0 puts the buffer at the rank's first position.
	if h, tag := l.move(0); h.to != l.slot {
		l.x.shift(l.ring, h.to, h.from, tag)
	}
	// (3) Shift and update along the remaining moves.
	l.walk()
	l.pairing.flush(l)
	// (4) Sum the partial force contributions over the team, on every
	// member; each integrates its own copy.
	l.st.SetPhase(trace.Reduce)
	applyForces(l.mine, l.x.allreduceForces(l.team, l.mine))
	l.st.SetPhase(trace.Compute)
	if err := phys.Step(l.mine, l.pr.Box, l.pr.DT); err != nil {
		return err
	}
	var err error
	l.mine, err = l.pairing.integrated(l, l.mine)
	return err
}

// walk is the shift loop as Algorithm 1 writes it: move, then update
// against the buffer that arrived. On a closed ring that covers every
// position once — the last move brings back position 0's block. On an
// open ring position 0 is a block of its own and is computed on before
// the first shift.
func (l *shiftLoop) walk() {
	if !l.closed {
		l.pairing.update(l, 0)
	}
	for i := 1; i <= l.last; i++ {
		l.st.SetPhase(trace.Shift)
		if h, tag := l.move(i); h.to != l.slot {
			l.x.shift(l.ring, h.to, h.from, tag)
		}
		l.pairing.update(l, i)
	}
}

// counted books one kernel batch: its pair evaluations and, on observed
// runs, the pool workers' timeline spans.
func (l *shiftLoop) counted(pairs int64) {
	l.pairs.Add(pairs)
	l.po.stampBatch()
}
