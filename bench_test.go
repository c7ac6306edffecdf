package nbody

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sweep"
)

// ---------------------------------------------------------------------------
// Figure benchmarks: one per evaluation figure of the paper. Each bench
// regenerates the figure's full data series from the machine models and
// reports the series' anchor numbers as custom metrics, so `go test
// -bench Figure` reproduces every row the paper plots. The tables
// themselves are printed by `go run ./cmd/nbody figures -all`.
// ---------------------------------------------------------------------------

func benchmarkReplicationFigure(b *testing.B, id string) {
	b.Helper()
	var tbl string
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = Figure(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = tbl
	// Report the modeled c=1 and best-c timestep times as metrics.
	s := mustSweepFor(b, id)
	best := s.Best()
	b.ReportMetric(s.Points[0].Breakdown.Total(), "s/step-first")
	b.ReportMetric(best.Breakdown.Total(), "s/step-best")
	b.ReportMetric(float64(best.C), "best-c")
}

// mustSweepFor rebuilds the underlying sweep of a replication figure to
// extract metrics. Scaling figures report efficiencies instead.
func mustSweepFor(b *testing.B, id string) *sweep.ReplicationSweep {
	b.Helper()
	specs := map[string]struct {
		mach      machine.Machine
		alg       model.Algorithm
		p, n      int
		cs        []int
		rc        float64
		topo, hwt bool
	}{
		"2a": {machine.Hopper(), model.AllPairs, 6144, 24576, []int{1, 2, 4, 8, 16, 32}, 0, false, false},
		"2b": {machine.Hopper(), model.AllPairs, 24576, 196608, []int{1, 2, 4, 8, 16, 32, 64}, 0, false, false},
		"2c": {machine.Intrepid(), model.AllPairs, 8192, 32768, []int{1, 2, 4, 8, 16, 32, 64}, 0, true, true},
		"2d": {machine.Intrepid(), model.AllPairs, 32768, 262144, []int{1, 2, 4, 8, 16, 32, 64, 128}, 0, true, true},
		"6a": {machine.Hopper(), model.Cutoff1D, 24576, 196608, []int{1, 2, 4, 8, 16, 32, 64}, 0.25, false, false},
		"6b": {machine.Hopper(), model.Cutoff2D, 24576, 196608, []int{1, 2, 4, 8, 16, 32, 64, 128}, 0.25, false, false},
		"6c": {machine.Intrepid(), model.Cutoff1D, 32768, 262144, []int{1, 2, 4, 8, 16, 32, 64}, 0.25, false, false},
		"6d": {machine.Intrepid(), model.Cutoff2D, 32768, 262144, []int{1, 2, 4, 8, 16, 32, 64}, 0.25, false, false},
	}
	sp, ok := specs[id]
	if !ok {
		b.Fatalf("no replication spec for figure %s", id)
	}
	s, err := sweep.Replication("bench", sp.mach, sp.alg, sp.p, sp.n, sp.cs, sp.rc, sp.topo, sp.hwt)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkFig2a(b *testing.B) { benchmarkReplicationFigure(b, "2a") }
func BenchmarkFig2b(b *testing.B) { benchmarkReplicationFigure(b, "2b") }
func BenchmarkFig2c(b *testing.B) { benchmarkReplicationFigure(b, "2c") }
func BenchmarkFig2d(b *testing.B) { benchmarkReplicationFigure(b, "2d") }
func BenchmarkFig6a(b *testing.B) { benchmarkReplicationFigure(b, "6a") }
func BenchmarkFig6b(b *testing.B) { benchmarkReplicationFigure(b, "6b") }
func BenchmarkFig6c(b *testing.B) { benchmarkReplicationFigure(b, "6c") }
func BenchmarkFig6d(b *testing.B) { benchmarkReplicationFigure(b, "6d") }

func benchmarkScalingFigure(b *testing.B, id string, mach machine.Machine, alg model.Algorithm, n int, ps, cs []int, rc float64, topo bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := Figure(id); err != nil {
			b.Fatal(err)
		}
	}
	s := sweep.Scaling("bench", mach, alg, n, ps, cs, rc, topo)
	last := len(ps) - 1
	bestEff, bestC := s.BestEff(last)
	b.ReportMetric(bestEff, "eff-best")
	b.ReportMetric(float64(bestC), "best-c")
	b.ReportMetric(s.Eff[last][0], "eff-c1")
}

func BenchmarkFig3a(b *testing.B) {
	benchmarkScalingFigure(b, "3a", machine.Hopper(), model.AllPairs, 196608,
		[]int{1536, 3072, 6144, 12288, 24576}, []int{1, 2, 4, 8, 16, 32, 64}, 0, false)
}

func BenchmarkFig3b(b *testing.B) {
	benchmarkScalingFigure(b, "3b", machine.Intrepid(), model.AllPairs, 262144,
		[]int{2048, 4096, 8192, 16384, 32768}, []int{1, 2, 4, 8, 16, 32, 64}, 0, true)
}

func BenchmarkFig7a(b *testing.B) {
	benchmarkScalingFigure(b, "7a", machine.Hopper(), model.Cutoff1D, 196608,
		[]int{96, 192, 384, 768, 1536, 3072, 6144, 12288, 24576}, []int{1, 4, 16, 64}, 0.25, false)
}

func BenchmarkFig7b(b *testing.B) {
	benchmarkScalingFigure(b, "7b", machine.Hopper(), model.Cutoff2D, 196608,
		[]int{96, 192, 384, 768, 1536, 3072, 6144, 12288, 24576}, []int{1, 4, 16, 64}, 0.25, false)
}

func BenchmarkFig7c(b *testing.B) {
	benchmarkScalingFigure(b, "7c", machine.Intrepid(), model.Cutoff1D, 262144,
		[]int{2048, 4096, 8192, 16384, 32768}, []int{1, 4, 16, 64}, 0.25, false)
}

func BenchmarkFig7d(b *testing.B) {
	benchmarkScalingFigure(b, "7d", machine.Intrepid(), model.Cutoff2D, 262144,
		[]int{2048, 4096, 8192, 16384, 32768}, []int{1, 4, 16, 64}, 0.25, false)
}

// ---------------------------------------------------------------------------
// Real-execution benchmarks: actual goroutine-parallel timesteps on this
// machine. These are the laptop-scale analogue of Figure 2 — wall time
// per timestep as the replication factor varies — with measured
// critical-path message events reported alongside.
// ---------------------------------------------------------------------------

func benchmarkRealAllPairs(b *testing.B, p, n, c int) {
	b.Helper()
	sim, err := New(Config{N: n, P: p, C: c})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Run(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rep := sim.Report()
	b.ReportMetric(float64(rep.S()), "msg-events/step")
	b.ReportMetric(float64(rep.W()), "bytes/step")
}

func BenchmarkRealAllPairs(b *testing.B) {
	for _, c := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=64/n=2048/c=%d", c), func(b *testing.B) {
			benchmarkRealAllPairs(b, 64, 2048, c)
		})
	}
}

func BenchmarkRealCutoff1D(b *testing.B) {
	for _, c := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p=32/n=2048/c=%d", c), func(b *testing.B) {
			sim, err := New(Config{N: 2048, P: 32, C: c, Dim: 1, Cutoff: 4, Lattice: true, DT: 1e-4})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Run(1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			rep := sim.Report()
			b.ReportMetric(float64(rep.S()), "msg-events/step")
		})
	}
}

func BenchmarkRealCutoff2D(b *testing.B) {
	for _, c := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=64/n=2048/c=%d", c), func(b *testing.B) {
			sim, err := New(Config{N: 2048, P: 64, C: c, Dim: 2, Cutoff: 4, Lattice: true, DT: 1e-4})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Run(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBaselines(b *testing.B) {
	for _, alg := range []Algorithm{CAAllPairs, ParticleDecomp, ForceDecomp, NaiveAllGather} {
		b.Run(alg.String(), func(b *testing.B) {
			cfg := Config{N: 1024, P: 16, Algorithm: alg}
			if alg == CAAllPairs {
				cfg.C = 4
			}
			sim, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Run(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

// BenchmarkAblationTopologyAware measures the modeled benefit of the
// bidirectional-torus shift optimization (Section III-C).
func BenchmarkAblationTopologyAware(b *testing.B) {
	for _, aware := range []bool{false, true} {
		b.Run(fmt.Sprintf("aware=%v", aware), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				bd, err := model.Evaluate(model.Config{
					Machine: machine.Intrepid(), Alg: model.AllPairs,
					P: 8192, N: 262144, C: 4, TopologyAware: aware,
				})
				if err != nil {
					b.Fatal(err)
				}
				total = bd.Total()
			}
			b.ReportMetric(total, "modeled-s/step")
		})
	}
}

// BenchmarkNetsimVsModel reports the event-driven simulation's
// communication estimate next to the analytic model's for one
// configuration — the contention ablation.
func BenchmarkNetsimVsModel(b *testing.B) {
	mach := machine.Generic()
	var simComm, modComm float64
	for i := 0; i < b.N; i++ {
		bd, err := netsim.AllPairsStep(mach, 64, 1024, 4)
		if err != nil {
			b.Fatal(err)
		}
		simComm = bd.Comm()
		md, err := model.Evaluate(model.Config{Machine: mach, Alg: model.AllPairs, P: 64, N: 1024, C: 4})
		if err != nil {
			b.Fatal(err)
		}
		modComm = md.Comm()
	}
	b.ReportMetric(simComm, "netsim-comm-s")
	b.ReportMetric(modComm, "model-comm-s")
}

// BenchmarkAutotune measures the cost of the runtime autotuner itself.
func BenchmarkAutotune(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := AutotuneC(Config{N: 512, P: 16}, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
