package core

import (
	"fmt"
	"testing"

	"repro/internal/phys"
)

// serialRun advances the same initial particle set with the serial
// brute-force kernel, the ground truth for the parallel algorithms.
func serialRun(ps []phys.Particle, law phys.Law, box phys.Box, steps int, dt float64) []phys.Particle {
	out := append([]phys.Particle(nil), ps...)
	for s := 0; s < steps; s++ {
		phys.BruteForce(out, law)
		phys.Step(out, box, dt)
	}
	return out
}

func defaultParams(p, c, steps int) Params {
	return Params{
		P:     p,
		C:     c,
		Law:   phys.DefaultLaw(),
		Box:   phys.NewBox(10, 2, phys.Reflective),
		DT:    1e-3,
		Steps: steps,
	}
}

func TestAllPairsMatchesSerial(t *testing.T) {
	cases := []struct{ p, c, n int }{
		{1, 1, 16},
		{4, 1, 16},
		{4, 2, 16},
		{8, 2, 32},
		{16, 1, 32},
		{16, 2, 32},
		{16, 4, 32},
		{36, 6, 72},
		{64, 4, 64},
		{64, 8, 128},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p=%d/c=%d/n=%d", tc.p, tc.c, tc.n), func(t *testing.T) {
			t.Parallel()
			pr := defaultParams(tc.p, tc.c, 3)
			ps := phys.InitUniform(tc.n, pr.Box, 42)
			want := serialRun(ps, pr.Law, pr.Box, pr.Steps, pr.DT)
			got, rep, err := AllPairs(ps, pr)
			if err != nil {
				t.Fatalf("AllPairs: %v", err)
			}
			if rep == nil {
				t.Fatal("nil report")
			}
			phys.SortByID(want)
			if len(got) != len(want) {
				t.Fatalf("got %d particles, want %d", len(got), len(want))
			}
			var worst float64
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Fatalf("particle %d: ID %d != %d", i, got[i].ID, want[i].ID)
				}
				if d := got[i].Pos.Dist(want[i].Pos); d > worst {
					worst = d
				}
			}
			if worst > 1e-9 {
				t.Errorf("worst position deviation %g exceeds 1e-9", worst)
			}
		})
	}
}

func TestAllPairsRejectsBadParams(t *testing.T) {
	ps := phys.InitUniform(16, phys.NewBox(10, 2, phys.Reflective), 1)
	for _, tc := range []struct {
		name string
		pr   Params
		n    int
	}{
		{"c does not divide p", defaultParams(6, 4, 1), 16},
		{"c^2 does not divide p", defaultParams(8, 4, 1), 16},
		{"teams do not divide n", defaultParams(16, 2, 1), 12},
		{"zero p", defaultParams(0, 1, 1), 16},
		{"negative steps", Params{P: 4, C: 1, Steps: -1}, 16},
	} {
		if _, _, err := AllPairs(ps[:tc.n], tc.pr); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestBaselinesMatchSerial(t *testing.T) {
	pr := defaultParams(16, 1, 2)
	ps := phys.InitUniform(32, pr.Box, 11)
	want := serialRun(ps, pr.Law, pr.Box, pr.Steps, pr.DT)
	phys.SortByID(want)

	check := func(name string, got []phys.Particle, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range got {
			if d := got[i].Pos.Dist(want[i].Pos); d > 1e-9 {
				t.Fatalf("%s: particle %d deviates by %g", name, i, d)
			}
		}
	}

	got, _, err := NaiveAllGather(ps, pr)
	check("NaiveAllGather", got, err)

	got, _, err = ParticleDecomposition(ps, pr)
	check("ParticleDecomposition", got, err)

	fd := pr
	fd.P = 16
	got, _, err = ForceDecomposition(ps, fd)
	check("ForceDecomposition", got, err)
}
