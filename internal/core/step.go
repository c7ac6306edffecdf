package core

import (
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// This file is the one step driver: runRanks, the harness every
// algorithm's timestep loop runs on, and shiftLoop, the one body that
// executes Algorithms 1 and 2 from a per-rank plan.

// rankLoop is one rank's share of an algorithm, built once per run
// inside the rank's goroutine.
type rankLoop struct {
	// step advances the rank by one timestep.
	step func() error
	// holds returns the particles the rank owns authoritatively when the
	// run ends and the slot they are deposited under; ok is false on
	// ranks that only ever held replicas.
	holds func() (slot int, ps []phys.Particle, ok bool)
}

// rank is what the harness lends a loop: the world communicator, its
// accounting record, and the force pool, which tiles an accumulation by
// disjoint target blocks — bitwise-identical for any worker count.
type rank struct {
	world *comm.Comm
	st    *trace.Stats
	pool  *phys.Pool
	po    poolObs
}

// runRanks runs build's loop for pr.Steps timesteps on every rank and
// gathers the n final particles sorted by ID. It owns everything around
// a step that is not the algorithm: the flight recorder, the phase
// clock, the per-step metrics, the force pool and its attribution, the
// live bounds probe (perS and perW are the run's per-step lower bounds)
// and the deposit of the final state, which RunProc merges across
// processes in a distributed run so every process gathers all of it.
// impl names the force-kernel implementation the loop's compute phase
// runs (phys.Kernel.Impl), for the report and the metrics.
func runRanks(n int, pr Params, impl string, perS, perW float64, build func(*rank) rankLoop) ([]phys.Particle, *trace.Report, error) {
	rr := newRunRecorder(pr)
	report, results, err := comm.RunProc(pr.P, pr.Options, pr.Proc, func(world *comm.Comm) error {
		st, mx := world.Stats(), world.Metrics()
		rk := &rank{world: world, st: st, pool: phys.NewPool(pr.WorkersPerRank())}
		defer rk.pool.Close()
		rk.po = newPoolObs(rk.pool, st, mx)
		loop := build(rk)

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
		probe := newStepProbe(world, impl, perS, perW)
		sampler := rr.sampler(world, pr.Steps)

		for step := 0; step < pr.Steps; step++ {
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
		report.KernelImpl = impl
		report.SLowerBound = perS * float64(pr.Steps)
		report.WLowerBound = perW * float64(pr.Steps)
	}
	rr.finish(report)
	if err != nil {
		return nil, report, err
	}
	// Flatten the slot-keyed deposits; the sort by ID makes the slot
	// iteration order irrelevant.
	out := make([]phys.Particle, 0, n)
	for _, r := range results {
		out = append(out, r...)
	}
	phys.SortByID(out)
	return out, report, nil
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
	// not. It decides which positions a walk computes on (walkSync,
	// walkOverlapped) and how the transport may reuse the exchange
	// buffer (the reuse discipline in transport.go).
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
	// that must not interact. On a closed ring it may instead keep the
	// view and apply it later, no later than flush.
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
// The fast-path state is built once per run — the law compiled to a
// specialized kernel (kind/cutoff/softening resolved outside the pair
// loop), a transport that retains its buffers across steps, the
// harness's pool with its workers parked between batches — so the
// steady-state timestep allocates nothing.
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
	if l.pr.Overlap {
		l.walkOverlapped()
	} else {
		l.walkSync()
	}
	l.pairing.flush(l)
	// (5) Sum-reduce the partial force contributions within the team;
	// the leader integrates.
	l.st.SetPhase(trace.Reduce)
	total := l.x.reduceForces(l.team, l.replica)
	if l.leader {
		applyForces(l.mine, total)
		l.st.SetPhase(trace.Compute)
		phys.Step(l.mine, l.pr.Box, l.pr.DT)
		var err error
		l.mine, err = l.pairing.integrated(l, l.mine)
		return err
	}
	return nil
}

// walkSync is the shift loop as Algorithm 1 writes it: move, then
// update against the buffer that arrived. On a closed ring that covers
// every position once — the last move brings back position 0's block.
// On an open ring position 0 is a block of its own and is computed on
// before the first shift.
func (l *shiftLoop) walkSync() {
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

// walkOverlapped hides each move behind the update against the buffer
// the rank holds when the move starts: the buffer is shipped first and
// computed on while in flight (the payload is only read on both sides).
// Every update thus runs one position earlier than in walkSync. On a
// closed ring that is the same set of blocks, visited in rotated order;
// on an open ring the last position still has to be computed on once
// its buffer has arrived.
func (l *shiftLoop) walkOverlapped() {
	for i := 1; i <= l.last; i++ {
		l.st.SetPhase(trace.Shift)
		h, tag := l.move(i)
		if h.to != l.slot {
			l.x.startShift(l.ring, h.to, h.from, tag)
		}
		l.pairing.update(l)
		if h.to != l.slot {
			l.st.SetPhase(trace.Shift)
			l.x.finishShift()
		}
	}
	if !l.closed {
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
