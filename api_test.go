package nbody

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestSimulationLifecycle(t *testing.T) {
	sim, err := New(Config{N: 32, P: 16, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(5); err != nil {
		t.Fatal(err)
	}
	if sim.Steps() != 5 {
		t.Errorf("Steps = %d, want 5", sim.Steps())
	}
	if sim.Report() == nil {
		t.Fatal("no report after Run")
	}
	worst, err := sim.VerifySerial()
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-9 {
		t.Errorf("parallel run deviates from serial by %g", worst)
	}
	// Incremental runs keep verifying.
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	worst, err = sim.VerifySerial()
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-9 {
		t.Errorf("after incremental run: deviation %g", worst)
	}
}

func TestCutoffSimulation(t *testing.T) {
	sim, err := New(Config{N: 64, P: 16, C: 2, Dim: 1, Cutoff: 4, Lattice: true, DT: 5e-4})
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.cfg.resolveAlgorithm(); got != CACutoff {
		t.Fatalf("auto algorithm = %v, want CACutoff", got)
	}
	if err := sim.Run(4); err != nil {
		t.Fatal(err)
	}
	worst, err := sim.VerifySerial()
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-9 {
		t.Errorf("cutoff run deviates by %g", worst)
	}
}

func TestAllDecompositionsAgree(t *testing.T) {
	base := Config{N: 32, P: 16, Seed: 5}
	var want []Particle
	for _, alg := range []Algorithm{CAAllPairs, ParticleDecomp, ForceDecomp, NaiveAllGather} {
		cfg := base
		cfg.Algorithm = alg
		if alg == CAAllPairs {
			cfg.C = 4
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := sim.Run(3); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got := sim.Particles()
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if d := got[i].Pos.Dist(want[i].Pos); d > 1e-9 {
				t.Fatalf("%v: particle %d deviates by %g from CAAllPairs", alg, i, d)
			}
		}
	}
}

// TestAllPairsFamilyPeriodicCutoff runs the all-pairs family under a
// cutoff law in a periodic box, which the law measures by the minimum
// image: every decomposition must agree with BruteForceCutoff, whose
// pairs wrap across the seam. (On the jittered lattice: 256 uniform
// particles on a line of 16 meet at distances that amplify the rounding
// of a different summation order to a visible deviation in 20 steps.)
func TestAllPairsFamilyPeriodicCutoff(t *testing.T) {
	for _, dim := range []int{1, 2} {
		for _, alg := range []Algorithm{CAAllPairs, ParticleDecomp, ForceDecomp, NaiveAllGather} {
			cfg := Config{N: 256, P: 16, Algorithm: alg, Dim: dim, Boundary: Periodic, Cutoff: 4, Lattice: true}
			if alg == CAAllPairs {
				cfg.C = 2
			}
			sim, err := New(cfg)
			if err != nil {
				t.Fatalf("%v %dD: %v", alg, dim, err)
			}
			if err := sim.Run(20); err != nil {
				t.Fatalf("%v %dD: %v", alg, dim, err)
			}
			worst, err := sim.VerifySerial()
			if err != nil {
				t.Fatalf("%v %dD: %v", alg, dim, err)
			}
			if worst > 1e-9 {
				t.Errorf("%v %dD: periodic cutoff run deviates by %g from the serial reference", alg, dim, worst)
			}
		}
	}
}

func TestLennardJonesSimulation(t *testing.T) {
	// The communication machinery is potential-agnostic: an LJ workload
	// must verify against the serial reference through every layer, and
	// survive a checkpoint round-trip with its parameters intact.
	cfg := Config{
		N: 64, P: 32, C: 2, // 16 teams: a 4x4 grid
		Potential: LennardJonesPotential, Epsilon: 0.3, Sigma: 0.9,
		Cutoff: 4, Dim: 2, Lattice: true, DT: 1e-4,
		Algorithm: CACutoff,
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(5); err != nil {
		t.Fatal(err)
	}
	worst, err := sim.VerifySerial()
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-9 {
		t.Errorf("LJ run deviates by %g", worst)
	}
	var buf bytes.Buffer
	if err := sim.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rc := restored.Config()
	if rc.Potential != LennardJonesPotential || rc.Epsilon != 0.3 || rc.Sigma != 0.9 {
		t.Errorf("LJ parameters lost across checkpoint: %+v", rc)
	}
	if err := restored.Run(3); err != nil {
		t.Fatal(err)
	}
	worst, err = restored.VerifySerial()
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-9 {
		t.Errorf("restored LJ run deviates by %g", worst)
	}
}

func TestClusteredWorkloadStaysCorrect(t *testing.T) {
	// The all-pairs algorithm deals particles to teams by ID, so a
	// spatially clustered workload must not affect correctness (nor
	// balance, which the report's per-rank maxima would expose).
	sim, err := New(Config{N: 64, P: 16, C: 2, Clusters: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(4); err != nil {
		t.Fatal(err)
	}
	worst, err := sim.VerifySerial()
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-9 {
		t.Errorf("clustered run deviates by %g", worst)
	}
}

func TestTrajectoryThroughAPI(t *testing.T) {
	sim, err := New(Config{N: 16, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewTrajectoryWriter(&buf)
	if err := sim.WriteFrame(tw); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := sim.WriteFrame(tw); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Frames() != 2 {
		t.Errorf("frames = %d", tw.Frames())
	}
	if !strings.Contains(buf.String(), "step=2") {
		t.Error("second frame missing step annotation")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no particles", Config{}},
		{"bad dim", Config{N: 10, Dim: 3}},
		{"negative cutoff", Config{N: 10, Cutoff: -1}},
		{"cutoff beyond box", Config{N: 10, Cutoff: 100}},
		{"cutoff alg without cutoff", Config{N: 10, Algorithm: CACutoff}},
		{"c beyond sqrt p", Config{N: 32, P: 8, C: 4}},
		{"teams not dividing n", Config{N: 30, P: 16, C: 2}},
		{"negative timestep", Config{N: 10, DT: -1}},
		{"NaN force constant", Config{N: 10, ForceK: math.NaN()}},
		{"negative softening", Config{N: 10, Softening: -1}},
		{"infinite Lennard-Jones sigma", Config{N: 10, Potential: LennardJonesPotential, Sigma: math.Inf(1)}},
		{"unknown boundary", Config{N: 10, Boundary: 7}},
		{"unknown potential", Config{N: 10, Potential: 9}},
		{"a billion workers per rank", Config{N: 64, P: 4, Workers: 1 << 30}},
		{"infinite box length", Config{N: 10, BoxLength: math.Inf(1)}},
		{"NaN cluster width", Config{N: 10, Clusters: 2, ClusterSigma: math.NaN()}},
		{"negative cluster count", Config{N: 10, Clusters: -1}},
		{"more clusters than particles", Config{N: 10, Clusters: 11}},
		{"2^40 clusters", Config{N: 10, Clusters: 1 << 40}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestCutoffGridTooNarrow: a team grid under three teams a side holds no
// cutoff window, however small the cutoff. The error names the team
// count instead of calling the cutoff too large.
func TestCutoffGridTooNarrow(t *testing.T) {
	_, err := New(Config{N: 64, P: 4, Cutoff: 1e-300})
	want := "core: 4 teams make a team grid of side 2, and a cutoff window is at least 3 teams a side: no cutoff fits (use more teams, p/c)"
	if err == nil || err.Error() != want {
		t.Fatalf("New: %v, want %q", err, want)
	}
}

// TestRunStopsOnRunawayParticles: configurations whose first step
// throws particles beyond the box's reach or beyond float64 — an
// infinite or astronomic force constant or timestep — end with an
// error: New refuses the infinite force constant, and Run the others,
// promptly, naming a particle, without a rank goroutine left behind.
// The boundary condition must not spin on such a position.
func TestRunStopsOnRunawayParticles(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cfg        Config
		newRefuses bool
	}{
		{"ForceK=+Inf", Config{N: 64, P: 4, ForceK: math.Inf(1)}, true},
		{"ForceK=1e300", Config{N: 64, P: 4, ForceK: 1e300}, false},
		{"DT=1e300", Config{N: 64, P: 4, DT: 1e300}, false},
		{"periodic/ForceK=1e20", Config{N: 64, P: 4, Boundary: Periodic, ForceK: 1e20}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			sim, err := New(tc.cfg)
			if tc.newRefuses {
				if err == nil {
					t.Fatal("New accepted the configuration")
				}
				return
			}
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			done := make(chan error, 1)
			go func() { done <- sim.Run(1) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "particle") {
					t.Fatalf("Run returned %v, want an error naming a particle", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Run still running after 1 s")
			}
		})
	}
}

func TestRunNegativeSteps(t *testing.T) {
	sim, err := New(Config{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(-1); err == nil {
		t.Error("negative steps should error")
	}
}

func TestParticlesReturnsCopy(t *testing.T) {
	sim, err := New(Config{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	ps := sim.Particles()
	ps[0].Pos.X = 12345
	if sim.Particles()[0].Pos.X == 12345 {
		t.Error("Particles exposed internal state")
	}
}

func TestAutotuneC(t *testing.T) {
	best, results, err := AutotuneC(Config{N: 64, P: 16}, 2, []int{1, 2, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 && best != 2 && best != 4 {
		t.Errorf("best c = %d, want a feasible candidate", best)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	for _, r := range results {
		if r.C == 5 && r.Err == nil {
			t.Error("c=5 does not divide p=16; expected an error")
		}
		if r.C != 5 && r.Err != nil {
			t.Errorf("c=%d unexpectedly failed: %v", r.C, r.Err)
		}
	}
	if _, _, err := AutotuneC(Config{N: 64, P: 16}, 1, []int{3}); err == nil {
		t.Error("all-infeasible candidates should error")
	}
}

func TestAutotuneWorkers(t *testing.T) {
	best, results, err := AutotuneWorkers(Config{N: 64, P: 4, C: 2}, 2, []int{2, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 && best != 2 {
		t.Errorf("best width = %d, want a feasible candidate", best)
	}
	if len(results) != 3 || results[0].Workers != -1 || results[0].Err == nil || results[1].Err != nil || results[2].Err != nil {
		t.Errorf("results = %+v, want widths -1 (rejected), 1, 2 in order", results)
	}
	if _, _, err := AutotuneWorkers(Config{N: 64, P: 4}, 1, []int{-1}); err == nil {
		t.Error("all-infeasible candidates should error")
	}
}

func TestPredictFacade(t *testing.T) {
	b, err := Predict(Prediction{Machine: Hopper, P: 24576, N: 196608, C: 16})
	if err != nil {
		t.Fatal(err)
	}
	if b.Total() <= 0 {
		t.Error("non-positive predicted time")
	}
	eff, err := PredictEfficiency(Prediction{Machine: Hopper, P: 24576, N: 196608, C: 16})
	if err != nil {
		t.Fatal(err)
	}
	if eff <= 0.5 || eff > 1 {
		t.Errorf("efficiency %g implausible", eff)
	}
	if _, err := Predict(Prediction{Machine: "cray-zz", P: 4, N: 4, C: 1}); err == nil {
		t.Error("unknown machine should error")
	}
	if _, err := Predict(Prediction{P: 16, N: 64, C: 1, CutoffFrac: 0.25, Dim: 3}); err == nil {
		t.Error("bad dim should error")
	}
}

func TestFigureFacade(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 14 {
		t.Fatalf("FigureIDs = %v", ids)
	}
	tbl, err := Figure("2b")
	if err != nil || !strings.Contains(tbl, "Hopper") {
		t.Fatalf("Figure 2b: %v\n%s", err, tbl)
	}
	csv, err := FigureCSV("3a")
	if err != nil || !strings.Contains(csv, "cores") {
		t.Fatalf("FigureCSV 3a: %v", err)
	}
	claims, err := PaperClaims()
	if err != nil || !strings.Contains(claims, "99.5") {
		t.Fatalf("PaperClaims: %v\n%s", err, claims)
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range []Algorithm{Auto, CAAllPairs, CACutoff, ParticleDecomp, ForceDecomp, NaiveAllGather} {
		if a.String() == "" || strings.HasPrefix(a.String(), "Algorithm(") {
			t.Errorf("missing name for %d", int(a))
		}
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm should still render")
	}
}

// TestFixedReplicationFactorIsReported: three algorithms run at a
// replication factor of their own — c = 1, or √p for the force
// decomposition — whatever Config.C says. A caller's 0 or 1 must
// resolve to that value everywhere it is reported (the configuration,
// the flight-recorder header, a checkpoint and what Load restores from
// it); any other value that disagrees must be refused, not ignored.
func TestFixedReplicationFactorIsReported(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want int
	}{
		{Config{N: 64, P: 16, Algorithm: ParticleDecomp}, 1},
		{Config{N: 64, P: 16, Algorithm: NaiveAllGather}, 1},
		{Config{N: 64, P: 16, Algorithm: ForceDecomp}, 4},
	} {
		for _, c := range []int{0, 1, tc.want} {
			cfg := tc.cfg
			cfg.C = c
			cfg.Observe = &ObserveOptions{}
			sim, err := New(cfg)
			if err != nil {
				t.Fatalf("%v C=%d: %v", cfg.Algorithm, c, err)
			}
			if got := sim.Config().C; got != tc.want {
				t.Errorf("%v C=%d: Config().C = %d, want %d", cfg.Algorithm, c, got, tc.want)
			}
			if got := sim.Recorder().Meta().C; got != tc.want {
				t.Errorf("%v C=%d: recorder header says c=%d, want %d", cfg.Algorithm, c, got, tc.want)
			}
			if err := sim.Run(2); err != nil {
				t.Fatalf("%v C=%d: %v", cfg.Algorithm, c, err)
			}
			var buf bytes.Buffer
			if err := sim.Save(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := Load(&buf)
			if err != nil {
				t.Fatalf("%v C=%d: load: %v", cfg.Algorithm, c, err)
			}
			if got := restored.Config().C; got != tc.want {
				t.Errorf("%v C=%d: restored Config().C = %d, want %d", cfg.Algorithm, c, got, tc.want)
			}
		}
		cfg := tc.cfg
		cfg.C = 2 // neither 1 nor √16
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "runs at c=") {
			t.Errorf("%v C=2: New returned %v, want the contradiction refused", cfg.Algorithm, err)
		}
	}
}
