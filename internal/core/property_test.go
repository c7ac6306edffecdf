package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/vec"
)

// TestAllPairsRandomConfigurations is a property-style sweep: many
// pseudo-random feasible (p, c, n, seed) combinations must all match the
// serial reference. It complements the fixed matrix in allpairs_test.go
// with configurations nobody hand-picked.
func TestAllPairsRandomConfigurations(t *testing.T) {
	rng := vec.NewRNG(2024)
	feasiblePC := [][2]int{
		{4, 1}, {4, 2}, {9, 3}, {8, 2}, {12, 2}, {16, 4}, {18, 3}, {25, 5}, {27, 3}, {32, 4},
	}
	for trial := 0; trial < 12; trial++ {
		pc := feasiblePC[intn(rng, len(feasiblePC))]
		p, c := pc[0], pc[1]
		T := p / c
		n := T * (1 + intn(rng, 6)) // random multiple of the team count
		seed := rng.Uint64()
		const steps = 2
		pr := defaultParams(p, c)
		ps := phys.InitUniform(n, pr.Box, seed)
		want := serialRun(ps, pr.Law, pr.Box, steps, pr.DT)
		phys.SortByID(want)
		got, _, err := advance(NewAllPairs, ps, pr, steps)
		if err != nil {
			t.Fatalf("trial %d (p=%d c=%d n=%d): %v", trial, p, c, n, err)
		}
		for i := range got {
			if d := got[i].Pos.Dist(want[i].Pos); d > 1e-9 {
				t.Fatalf("trial %d (p=%d c=%d n=%d seed=%d): particle %d deviates by %g",
					trial, p, c, n, seed, i, d)
			}
		}
	}
}

// TestParallelMomentumConservation: the symmetric force law conserves
// total momentum; wall reflections are the only source of change. With
// particles kept away from the walls, a parallel run must conserve
// momentum to rounding.
func TestParallelMomentumConservation(t *testing.T) {
	pr := defaultParams(16, 2)
	pr.DT = 1e-5 // keep particles off the walls over 5 steps
	box := pr.Box
	ps := make([]phys.Particle, 32)
	rng := vec.NewRNG(77)
	for i := range ps {
		ps[i].ID = uint32(i)
		// Interior band only.
		ps[i].Pos = vec.Vec2{X: rng.Range(2, box.L-2), Y: rng.Range(2, box.L-2)}
		ps[i].Vel = vec.Vec2{X: rng.Range(-0.1, 0.1), Y: rng.Range(-0.1, 0.1)}
	}
	before := phys.Momentum(ps)
	got, _, err := advance(NewAllPairs, ps, pr, 5)
	if err != nil {
		t.Fatal(err)
	}
	after := phys.Momentum(got)
	if d := after.Sub(before).Norm(); d > 1e-9 {
		t.Errorf("momentum changed by %g in a wall-free parallel run", d)
	}
}

// TestCutoffMigrationTooFastFails injects a failure: a timestep so large
// that particles jump more than one team width must surface as a clean
// error from every rank, not a hang or corruption. (Not so large that
// they leave the box by more than its length: the integrator reports
// that before migration can.)
func TestCutoffMigrationTooFastFails(t *testing.T) {
	pr := cutoffParams(16, 2, 1, phys.Reflective)
	pr.DT = 0.5 // absurd timestep: teams are 2 wide
	ps := phys.InitLattice(64, pr.Box, 5)
	// Give particles real velocity so they cross multiple slabs.
	for i := range ps {
		ps[i].Vel.X = 1
	}
	_, _, err := advance(NewCutoff, ps, pr, 3)
	if err == nil {
		t.Fatal("expected migration-distance error")
	}
	if !strings.Contains(err.Error(), "migrated") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestAllPairsSingleRankDegenerate: p=1 must reduce to the serial
// algorithm with zero communication.
func TestAllPairsSingleRankDegenerate(t *testing.T) {
	const steps = 3
	pr := defaultParams(1, 1)
	ps := phys.InitUniform(20, pr.Box, 9)
	want := serialRun(ps, pr.Law, pr.Box, steps, pr.DT)
	phys.SortByID(want)
	got, rep, err := advance(NewAllPairs, ps, pr, steps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if d := got[i].Pos.Dist(want[i].Pos); d > 1e-12 {
			t.Fatalf("particle %d deviates by %g", i, d)
		}
	}
	if rep.S() != 0 || rep.W() != 0 {
		t.Errorf("single rank communicated: S=%d W=%d", rep.S(), rep.W())
	}
}

// TestDeterminism: two identical parallel runs must agree bitwise (the
// runtime's collectives combine in a fixed order).
func TestDeterminism(t *testing.T) {
	pr := defaultParams(16, 4)
	ps := phys.InitUniform(32, pr.Box, 123)
	a, _, err := advance(NewAllPairs, ps, pr, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := advance(NewAllPairs, ps, pr, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("particle %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSpanFor checks the cutoff-to-team-span conversion (Equation 6).
func TestSpanFor(t *testing.T) {
	// rc exactly q team widths → m = q.
	if got := SpanFor(4, 16, 8); got != 2 {
		t.Errorf("SpanFor(4,16,8) = %d, want 2", got)
	}
	// Slightly more than q widths → rounds up.
	if got := SpanFor(4.01, 16, 8); got != 3 {
		t.Errorf("SpanFor(4.01,16,8) = %d, want 3", got)
	}
	// Tiny cutoffs clamp to 1.
	if got := SpanFor(0.001, 16, 8); got != 1 {
		t.Errorf("SpanFor(0.001,16,8) = %d, want 1", got)
	}
	if got := SpanFor(1, 16, 16); got != 1 {
		t.Errorf("SpanFor(1,16,16) = %d, want 1", got)
	}
	// A cutoff past a whole number of widths by less than any relative
	// slack takes the wider window; one at or below it does not. The
	// width need not be exact (30/9), nor the cutoff's quotient by it.
	w3 := 30.0 / 9
	for _, c := range []struct {
		rc, l float64
		side  int
		want  int
	}{
		{4 + 9*0x1p-50, 16, 4, 2}, // nine ulps past one width of 4
		{math.Nextafter(4, 5), 16, 4, 2},
		{math.Nextafter(4, 0), 16, 4, 1},
		{2 + 9*0x1p-51, 16, 8, 2},
		{math.Nextafter(4, 5), 16, 8, 3},
		{math.Nextafter(4, 0), 16, 8, 2},
		{w3, 30, 9, 1},
		{math.Nextafter(w3, 4), 30, 9, 2},
		{2 * w3, 30, 9, 2},
		{math.Nextafter(2*w3, 7), 30, 9, 3},
		{math.Nextafter(2*w3, 0), 30, 9, 2},
		{16, 16, 4, 4}, // side widths: the cap
		{100, 16, 4, 4},
		{math.Inf(1), 16, 4, 4},
		{math.NaN(), 16, 4, 4},
	} {
		w := c.l / float64(c.side)
		got := SpanFor(c.rc, c.l, c.side)
		if got != c.want {
			t.Errorf("SpanFor(%v, %g, %d) = %d, want %d", c.rc, c.l, c.side, got, c.want)
		}
		if got < c.side && (float64(got)*w < c.rc || got > 1 && float64(got-1)*w >= c.rc) {
			t.Errorf("SpanFor(%v, %g, %d) = %d is not the smallest m with m·w ≥ rc", c.rc, c.l, c.side, got)
		}
	}
}

// TestClusteredWorkloadImbalance: a spatially clustered particle set
// loads the cutoff's spatial decomposition unevenly — the contrast
// behind the paper's uniform-density assumption — while a lattice
// fills every team alike. Measured on what the decomposition itself
// decides, the particles each team owns, not on phase wall times: a
// three-step run's compute phases are microseconds and their max/mean
// says more about the scheduler than about the input.
func TestClusteredWorkloadImbalance(t *testing.T) {
	box := phys.NewBox(16, 1, phys.Reflective)
	clustered := phys.InitClustered(128, box, 2, 0.8, 17)
	uniform := phys.InitLattice(128, box, 17)

	prCut := cutoffParams(16, 1, 1, phys.Reflective)
	tg, err := topo.NewTeamGrid(prCut.Teams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	imbalance := func(ps []phys.Particle) float64 {
		most := 0
		for _, owned := range scatterByTeam(ps, box, tg) {
			most = max(most, len(owned))
		}
		return float64(most) * float64(tg.Teams()) / float64(len(ps))
	}
	if ic, iu := imbalance(clustered), imbalance(uniform); iu != 1 || ic < 2 {
		t.Errorf("team occupancy max/mean: clustered %.2f (want >= 2), lattice %.2f (want 1)", ic, iu)
	}
	// Sanity: clustered input remains numerically correct.
	const steps = 3
	want := serialCutoffRun(clustered, prCut.Law, prCut.Box, steps, prCut.DT)
	got, _, err := advance(NewCutoff, clustered, prCut, steps)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, got, want, 1e-9)
}

// intn returns a uniform value in [0, n) drawn from rng.
func intn(rng *vec.RNG, n int) int { return int(rng.Uint64() % uint64(n)) }
