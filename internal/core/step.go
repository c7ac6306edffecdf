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
// algorithm's timestep loop runs on, and shiftLoop, the one body that
// executes Algorithms 1 and 2 from a per-rank plan.

// rankLoop is one rank's share of an algorithm, built inside the rank's
// goroutine on the session's first Advance and kept for the later ones.
type rankLoop struct {
	// step advances the rank by one timestep.
	step func() error
	// holds returns the particles the rank owns authoritatively at the
	// end of an Advance and the slot they are deposited under; ok is
	// false on ranks that only ever hold replicas.
	holds func() (slot int, ps []phys.Particle, ok bool)
}

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
	loop  rankLoop
}

// Session is an algorithm's parallel run that outlives its Advance
// calls. The constructors (NewAllPairs, NewCutoff, ...) validate the
// parameters and lay out the decomposition — the grid, the schedule, the
// particles' first owners — on the caller's goroutine, starting nothing.
// The first Advance builds the comm world and, inside each rank's
// goroutine, the rank's loop; the session keeps both, the loops with
// every buffer they have grown (replica, exchange buffers, reduction
// payload, migration stock), so a later Advance costs its
// steps and not a rebuild. Between calls it is memory only: the rank
// goroutines and the force pools' workers start and stop with each
// Advance. A failed Advance leaves the session dead.
type Session struct {
	n          int
	pr         Params
	impl       string  // force-kernel implementation of the compute phase
	perS, perW float64 // per-step lower bounds
	build      func(*rank) rankLoop
	rt         *comm.Runtime // nil until the first Advance
	ranks      []*rank       // by world rank; nil until the rank's first Advance
	out        []phys.Particle
}

// newSession wraps an algorithm's per-rank loop builder in a session of
// n particles; perS and perW are the run's per-step lower bounds. The
// force-kernel implementation the compute phase runs, named in the
// report and the metrics, is the law's (phys.Kernel.Impl).
func newSession(n int, pr Params, perS, perW float64, build func(*rank) rankLoop) *Session {
	return &Session{n: n, pr: pr, impl: pr.Law.Kernel().Impl(), perS: perS, perW: perW, build: build, ranks: make([]*rank, pr.P)}
}

// once is the one-shot form of a driver: a session constructed, then
// advanced by steps.
func once(s *Session, err error, steps int) ([]phys.Particle, *trace.Report, error) {
	if err != nil {
		return nil, nil, err
	}
	return s.Advance(steps)
}

// Advance runs every rank's loop for steps timesteps and gathers the n
// particles sorted by ID, with the report of these steps alone. It owns
// everything around a step that is not the algorithm: the flight
// recorder, the phase clock, the per-step metrics, the force pool and
// its attribution, the live bounds probe and the deposit of the final
// state, which the world merges across processes in a distributed run
// so every process gathers all of it. The returned slice is the
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
	rr := newRunRecorder(s.pr, steps)
	report, results, err := s.rt.Run(func(world *comm.Comm) error {
		rk := s.ranks[world.Rank()]
		if rk == nil {
			rk = &rank{world: world, st: world.Stats()}
			s.ranks[world.Rank()] = rk
		}
		st, mx := rk.st, world.Metrics()
		rk.pool = phys.NewPool(s.pr.WorkersPerRank())
		defer rk.pool.Close()
		rk.po = newPoolObs(rk.pool, st, mx)
		if rk.loop.step == nil {
			rk.loop = s.build(rk)
		}
		loop := rk.loop

		st.StartTiming()
		defer st.StopTiming()

		// Per-step metrics: rank 0 records each step's wall time (the
		// loops are lock-step, so one rank's cadence stands for the
		// run's); every rank feeds its per-step compute time into a
		// shared histogram whose max/mean ratio is the per-step compute
		// imbalance — the signal the cutoff algorithm's boundary effects
		// show up in. Handles are nil — and the calls no-ops — when the
		// run is not observed.
		stepWall := mx.Histogram("step.wall_ns")
		stepCompute := mx.Histogram("step.compute_ns")
		stepsDone := mx.Counter("step.count")
		observed := mx != nil
		probe := newStepProbe(world, s.impl, s.perS, s.perW)
		sampler := rr.sampler(world, steps)

		for step := 0; step < steps; step++ {
			var t0 time.Time
			var computeBefore time.Duration
			if observed {
				t0 = time.Now()
				computeBefore = st.ByPhase[trace.Compute].Time
			}
			if err := loop.step(); err != nil {
				return err
			}
			st.SetPhase(trace.Other)
			rk.po.stampStep()
			probe.stampStep()
			if observed {
				stepCompute.Observe(int64(st.ByPhase[trace.Compute].Time - computeBefore))
				if world.Rank() == 0 {
					wall := time.Since(t0)
					stepWall.Observe(wall.Nanoseconds())
					stepsDone.Inc()
					sampler.stampStep(wall)
				}
			}
		}
		if slot, ps, ok := loop.holds(); ok {
			world.Deposit(slot, ps)
		}
		return nil
	})
	if report != nil {
		// For the footer's kernel line and measured-over-bound ratios.
		report.KernelImpl = s.impl
		report.SLowerBound = s.perS * float64(steps)
		report.WLowerBound = s.perW * float64(steps)
	}
	rr.finish(report)
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
// interact with the rank's replica, and what follows the integration.
type pairing interface {
	// update applies the buffer the rank holds (l.x.view) to l.replica —
	// under the Compute phase, booked with l.counted — or skips a block
	// that must not interact. On a closed ring, and a transport built to
	// keep views (newXfer), it may instead keep the view and apply it
	// later, no later than flush.
	update(l *shiftLoop)
	// flush runs when the walk has ended, before the reduce: it applies
	// whatever update has kept back.
	flush(l *shiftLoop)
	// integrated runs on the leader once it has integrated mine and
	// returns the block the leader owns from here on.
	integrated(l *shiftLoop, mine []phys.Particle) ([]phys.Particle, error)
}

// shiftLoop is the timestep of Algorithms 1 and 2 — broadcast, skew,
// shift-and-update, reduce, integrate — as one rank executes it from
// its plan: its place on the replication grid, the communicators of
// its ring and its team, its move list and the algorithm's pairing.
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
	// buffers shift along it. team is its column, leader first: the
	// broadcast/reduce group.
	ring, team *comm.Comm
	pairing    pairing
	pr         *Params
	kern       phys.Kernel
	x          xfer
	pairs      *obs.Counter // nil, and Add a no-op, on unobserved runs
	// mine is the leader's authoritative copy of the team's particles,
	// replica the rank's private copy of this step's broadcast.
	mine, replica []phys.Particle
}

// newShiftLoop fills in what follows from the run's parameters and the
// rank's place (row, col) on cg; the caller adds the moves, the pairing,
// the transport and the leader's particles.
func newShiftLoop(rk *rank, pr *Params, cg *commGrid) (l *shiftLoop, row, col int) {
	row, col = cg.Coord(rk.world.Rank())
	return &shiftLoop{
		rank: rk, pr: pr, slot: col, leader: row == 0,
		ring: rk.world.Sub(cg.rows[row]), team: rk.world.Sub(cg.teams[col]),
		kern:  pr.Law.Kernel(),
		pairs: rk.world.Metrics().Counter("compute.pairs"),
	}, row, col
}

func (l *shiftLoop) step() error {
	// (1) Broadcast St from the team leader to team members.
	l.st.SetPhase(trace.Broadcast)
	var lead []phys.Particle
	if l.leader {
		lead = l.mine
	}
	l.replica = l.x.bcastTeam(l.team, lead)
	// (2) Copy St to the exchange buffer.
	l.x.loadExchange(l.replica)
	// (3) Skew: move 0 puts the buffer at the rank's first position.
	l.st.SetPhase(trace.Skew)
	if h, tag := l.move(0); h.to != l.slot {
		l.x.shift(l.ring, h.to, h.from, tag)
	}
	// (4) Shift and update along the remaining moves.
	l.walk()
	l.pairing.flush(l)
	// (5) Sum-reduce the partial force contributions within the team;
	// the leader integrates.
	l.st.SetPhase(trace.Reduce)
	total := l.x.reduceForces(l.team, l.replica)
	if l.leader {
		applyForces(l.mine, total)
		l.st.SetPhase(trace.Compute)
		if err := phys.Step(l.mine, l.pr.Box, l.pr.DT); err != nil {
			return err
		}
		var err error
		l.mine, err = l.pairing.integrated(l, l.mine)
		return err
	}
	return nil
}

// walk is the shift loop as Algorithm 1 writes it: move, then update
// against the buffer that arrived. On a closed ring that covers every
// position once — the last move brings back position 0's block. On an
// open ring position 0 is a block of its own and is computed on before
// the first shift.
func (l *shiftLoop) walk() {
	if !l.closed {
		l.pairing.update(l)
	}
	for i := 1; i <= l.last; i++ {
		l.st.SetPhase(trace.Shift)
		if h, tag := l.move(i); h.to != l.slot {
			l.x.shift(l.ring, h.to, h.from, tag)
		}
		l.pairing.update(l)
	}
}

// counted books one kernel batch: its pair evaluations and, on observed
// runs, the pool workers' timeline spans.
func (l *shiftLoop) counted(pairs int64) {
	l.pairs.Add(pairs)
	l.po.stampBatch()
}

func (l *shiftLoop) holds() (int, []phys.Particle, bool) { return l.slot, l.mine, l.leader }
