package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// onArrival is the pairing everyBlock replaced, kept as its reference:
// one kernel call per visiting block, the moment it arrives.
type onArrival struct{}

func (onArrival) update(l *shiftLoop, _ int) {
	_, visiting := l.x.view()
	l.st.SetPhase(trace.Compute)
	l.counted(l.pool.AccumulateIn(l.kern, l.mine, visiting, l.pr.Box))
}

func (onArrival) flush(*shiftLoop) {}

func (onArrival) integrated(_ *shiftLoop, mine []phys.Particle) ([]phys.Particle, error) {
	return mine, nil
}

// allPairsOnArrival is NewAllPairs with that pairing, advanced steps
// timesteps, for parameters NewAllPairs accepts.
func allPairsOnArrival(ps []phys.Particle, pr Params, steps int) ([]phys.Particle, error) {
	n, T := len(ps), pr.Teams()
	cg, err := newCommGrid(pr.P, pr.C)
	if err != nil {
		return nil, err
	}
	npt := n / T
	perS, perW := directBounds(n, pr)
	s := newSession(n, pr, perS, perW, cg, func(rk *rank) *shiftLoop {
		l, row, col := newShiftLoop(rk, &pr, cg)
		l.moves = allPairsMoves(T, pr.C, row, col)
		l.pairing = onArrival{}
		l.x = rk.newXfer(-1, false)
		l.mine = append([]phys.Particle(nil), ps[col*npt:(col+1)*npt]...)
		return l
	})
	out, _, err := s.Advance(steps)
	return out, err
}

// TestGatherSweepBoundaries holds the gathering all-pairs loop to the
// loop that sweeps every block on arrival, on grids that put the block
// length n/T below, at and above sweepBatch and the end of a walk both
// on and inside a batch boundary: for one and two workers, the final
// state is struct-equal, the pair count is the closed form, and the
// timeline shows one Compute span per sweep (plus the integration, which
// every rank runs).
func TestGatherSweepBoundaries(t *testing.T) {
	const steps = 4 // a buffer is rewritten two steps after it was loaded
	cases := []struct {
		name      string
		p, c, npt int
	}{
		{"one rank", 1, 1, sweepBatch / 4},
		{"walk ends inside the first batch", 16, 2, sweepBatch / 8},
		{"walk ends on the batch boundary", 16, 2, sweepBatch / 4},
		{"three sweeps, the last one short", 8, 1, 3 * sweepBatch / 8},
		{"five sweeps of two blocks and one of one", 36, 2, sweepBatch / 2},
		{"a block is a batch", 8, 2, sweepBatch},
		{"a block exceeds a batch, ragged lanes", 4, 1, sweepBatch + 3},
		{"the leader's own block after three others", 16, 2, sweepBatch + 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			T := tc.p / tc.c
			n := T * tc.npt
			blocks := T / tc.c                             // visiting blocks per rank and step
			perSweep := (sweepBatch + tc.npt - 1) / tc.npt // blocks that fill a batch
			sweeps := (blocks + perSweep - 1) / perSweep   // the last one by flush
			pr := defaultParams(tc.p, tc.c)
			ps := phys.InitUniform(n, pr.Box, 77)
			want, err := allPairsOnArrival(ps, pr, steps)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, workers := range []int{1, 2} {
				run := fmt.Sprintf("workers=%d", workers)
				pr := pr
				pr.Workers = workers
				ob := obs.NewObserver(tc.p, 1<<13)
				pr.Options.Observe = ob
				got, _, err := advance(NewAllPairs, ps, pr, steps)
				if err != nil {
					t.Fatalf("%s: %v", run, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d particles, want %d", run, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: particle %d\n gathered   %+v\n on arrival %+v", run, i, got[i], want[i])
					}
				}
				if pairs, want := ob.Metrics.Snapshot().Counters["compute.pairs"], int64(steps)*int64(n*n-n); pairs != want {
					t.Errorf("%s: compute.pairs = %d, want %d", run, pairs, want)
				}
				if d := ob.Timeline.Dropped(); d != 0 {
					t.Fatalf("%s: timeline dropped %d events", run, d)
				}
				for r := 0; r < tc.p; r++ {
					spans := 0
					for _, ev := range ob.Timeline.Events(r) {
						if ev.Kind == obs.KindPhase && ev.Phase == uint8(trace.Compute) {
							spans++
						}
					}
					wantSpans := steps * (sweeps + 1) // every rank integrates under Compute
					if spans != wantSpans {
						t.Errorf("%s: rank %d has %d Compute spans, want %d (%d sweeps a step)", run, r, spans, wantSpans, sweeps)
					}
				}
			}
		})
	}
}

// TestGatherSweepPeriodicCutoff runs all-pairs under a cutoff law in a
// periodic box, with blocks long enough (n/T >= sweepBatch) that each
// leader sweeps its own block alone: that visit must measure under the
// run's box, minimum image and all, as the loop sweeping every block on
// arrival does. The cutoff is most of half the box, so many pairs
// interact only across the wrap.
func TestGatherSweepPeriodicCutoff(t *testing.T) {
	pr := defaultParams(4, 2)
	pr.Box = phys.NewBox(10, 2, phys.Periodic)
	pr.Law = phys.DefaultLaw().WithCutoff(4)
	ps := phys.InitUniform(2*(2*sweepBatch), pr.Box, 19)
	want, err := allPairsOnArrival(ps, pr, 3)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, workers := range []int{1, 2} {
		pr := pr
		pr.Workers = workers
		got, _, err := advance(NewAllPairs, ps, pr, 3)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: particle %d\n gathered   %+v\n on arrival %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkShiftLoopSmallBlocks is the latency-bound timestep whole: the
// shape of the repository benchmark's ap-latency workload (N=256, P=64,
// C=2: 8-particle blocks, 16 hops a step) through AllPairs on 2 Ps, one
// iteration a timestep, the run's start-up included.
// BenchmarkRingShiftOversubscribed in internal/comm prices the message
// of a hop alone; the difference is what else a hop costs.
func BenchmarkShiftLoopSmallBlocks(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pr := defaultParams(64, 2)
	ps := phys.InitUniform(256, pr.Box, 1)
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := advance(NewAllPairs, ps, pr, b.N); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e3, "µs/step")
}
