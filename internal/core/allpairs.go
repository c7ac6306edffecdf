package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
)

// AllPairs runs the communication-avoiding all-pairs interaction
// algorithm (Algorithm 1 of the paper) for pr.Steps timesteps on pr.P
// goroutine ranks with replication factor pr.C, starting from the
// particle set ps. It returns the final particles sorted by ID and the
// aggregated communication report.
//
// Requirements: c² must divide p (so the shift loop runs an integral
// p/c² steps) and the number of teams p/c must divide n (so teams own
// equal subsets, the paper's load-balance assumption).
func AllPairs(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
	n := len(ps)
	if err := pr.validateCommon(n); err != nil {
		return nil, nil, err
	}
	if pr.P%(pr.C*pr.C) != 0 {
		return nil, nil, fmt.Errorf("core: all-pairs needs c² | p, got p=%d c=%d", pr.P, pr.C)
	}
	T := pr.Teams()
	if n%T != 0 {
		return nil, nil, fmt.Errorf("core: all-pairs needs teams | n, got n=%d teams=%d", n, T)
	}
	grid, err := topo.NewGrid(pr.P, pr.C)
	if err != nil {
		return nil, nil, err
	}
	npt := n / T                   // particles per team
	shifts := pr.P / (pr.C * pr.C) // shift steps per timestep
	perS, perW := directBounds(n, pr)

	rr := newRunRecorder(pr)
	report, results, err := comm.RunProc(pr.P, pr.Options, pr.Proc, func(world *comm.Comm) error {
		rank := world.Rank()
		row, col := grid.Coord(rank)
		rowComm, teamComm := gridComms(world, grid)
		st := world.Stats()

		// The leader starts with the authoritative copy of the team's
		// particles (contiguous block of the ID-ordered input).
		var mine []phys.Particle
		if row == 0 {
			mine = append([]phys.Particle(nil), ps[col*npt:(col+1)*npt]...)
		}

		st.StartTiming()
		defer st.StopTiming()

		// Per-step metrics: rank 0 records each step's wall time (the
		// loop is lock-step, so one rank's cadence stands for the
		// run's); every rank feeds its per-step compute time into a
		// shared histogram whose max/mean ratio is the per-step compute
		// imbalance. Handles are nil — and the calls no-ops — when the
		// run is not observed.
		mx := world.Metrics()
		stepWall := mx.Histogram("step.wall_ns")
		stepCompute := mx.Histogram("step.compute_ns")
		stepsDone := mx.Counter("step.count")
		pairEvals := mx.Counter("compute.pairs")
		observed := mx != nil
		probe := newStepProbe(world, perS, perW)
		sampler := rr.sampler(world, pr.Steps)

		// Per-rank fast-path state, built once: the law is compiled to a
		// specialized kernel (kind/cutoff/softening resolved outside the
		// pair loop), the transport retains its buffers across steps
		// (double-buffering the exchange; see the reuse discipline in
		// transport.go), and the force pool keeps its workers parked
		// between batches, so the steady-state timestep allocates
		// nothing. The pool tiles the accumulation by disjoint target
		// blocks — bitwise-identical for any worker count — and in
		// overlap mode its workers compute on the held buffer while the
		// next exchange is in flight, reading only the read-only view.
		kern := pr.Law.Kernel().WithTile(pr.Tile)
		pool := phys.NewPool(pr.WorkersPerRank())
		defer pool.Close()
		po := newPoolObs(pool, st, mx)
		x := newXfer(pr.Encoded, -1, pr.Overlap)
		// Ring neighbours are constants of the run: row k skews east by k,
		// every row shifts east by c (rowComm ranks are team columns).
		skewTo, skewFrom := topo.Mod(col+row, T), topo.Mod(col-row, T)
		shiftTo, shiftFrom := topo.Mod(col+pr.C, T), topo.Mod(col-pr.C, T)
		var team []phys.Particle
		update := func() error {
			_, visiting, err := x.view()
			if err != nil {
				return err
			}
			st.SetPhase(trace.Compute)
			pairEvals.Add(pool.Accumulate(kern, team, visiting))
			po.stampBatch()
			return nil
		}

		for step := 0; step < pr.Steps; step++ {
			var t0 time.Time
			var computeBefore time.Duration
			if observed {
				t0 = time.Now()
				computeBefore = st.ByPhase[trace.Compute].Time
			}
			// (1) Broadcast St from the team leader to team members.
			st.SetPhase(trace.Broadcast)
			var lead []phys.Particle
			if row == 0 {
				lead = mine
			}
			var err error
			team, err = x.bcastTeam(teamComm, lead)
			if err != nil {
				return err
			}

			// (2) Copy St to the exchange buffer.
			x.loadExchange(team)

			// (3) Skew: row k shifts its exchange buffer east by k.
			st.SetPhase(trace.Skew)
			if row != 0 && T > 1 {
				x.shift(rowComm, skewTo, skewFrom, tagSkew)
			}

			// (4) p/c² shift-and-update steps. In overlap mode each rank
			// computes against the buffer it currently holds while that
			// buffer travels to the neighbor (the offsets visited differ
			// by one shift but cover the same residue class, so the
			// result is identical).
			for i := 0; i < shifts; i++ {
				st.SetPhase(trace.Shift)
				if T > 1 && pr.C < T {
					if pr.Overlap {
						err := x.shiftOverlap(rowComm, shiftTo, shiftFrom, tagShift+i, func() error {
							uerr := update()
							st.SetPhase(trace.Shift)
							return uerr
						})
						if err != nil {
							return err
						}
						continue
					}
					x.shift(rowComm, shiftTo, shiftFrom, tagShift+i)
				}
				if err := update(); err != nil {
					return err
				}
			}

			// (5) Sum-reduce the partial force contributions within the
			// team; the leader integrates.
			st.SetPhase(trace.Reduce)
			total := x.reduceForces(teamComm, team)
			if row == 0 {
				applyForces(mine, total)
				st.SetPhase(trace.Compute)
				phys.Step(mine, pr.Box, pr.DT)
			}
			st.SetPhase(trace.Other)
			po.stampStep()
			probe.stampStep()
			if observed {
				stepCompute.Observe(int64(st.ByPhase[trace.Compute].Time - computeBefore))
				if rank == 0 {
					wall := time.Since(t0)
					stepWall.Observe(wall.Nanoseconds())
					stepsDone.Inc()
					sampler.stampStep(wall)
				}
			}
		}

		if row == 0 {
			// The team leader deposits the final block under its team id;
			// RunProc merges deposits across processes in a distributed
			// run, so every process gathers the complete state.
			world.Deposit(col, mine)
		}
		return nil
	})
	stampReport(report, perS, perW, pr.Steps)
	rr.finish(report)
	if err != nil {
		return nil, report, err
	}
	return gatherResults(results, n), report, nil
}

// gatherResults flattens slot-keyed outputs and sorts them by ID (the
// sort makes the slot iteration order irrelevant).
func gatherResults(results map[int][]phys.Particle, n int) []phys.Particle {
	out := make([]phys.Particle, 0, n)
	for _, r := range results {
		out = append(out, r...)
	}
	phys.SortByID(out)
	return out
}

// Tags for user-level messages. Shift tags encode the step index so a
// mismatched schedule fails loudly.
const (
	tagSkew = iota
	tagMigrate
	tagShift = 1000
)
