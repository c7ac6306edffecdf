package core

import (
	"fmt"
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
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

func defaultParams(p, c int) Params {
	return Params{
		P:   p,
		C:   c,
		Law: phys.DefaultLaw(),
		Box: phys.NewBox(10, 2, phys.Reflective),
		DT:  1e-3,
	}
}

// advance is the one-shot run the tests compare: a session built by newS
// from ps and pr, advanced steps timesteps.
func advance(newS func([]phys.Particle, Params) (*Session, error), ps []phys.Particle, pr Params, steps int) ([]phys.Particle, *trace.Report, error) {
	s, err := newS(ps, pr)
	if err != nil {
		return nil, nil, err
	}
	return s.Advance(steps)
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
			const steps = 3
			pr := defaultParams(tc.p, tc.c)
			ps := phys.InitUniform(tc.n, pr.Box, 42)
			want := serialRun(ps, pr.Law, pr.Box, steps, pr.DT)
			got, rep, err := advance(NewAllPairs, ps, pr, steps)
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
		{"c does not divide p", defaultParams(6, 4), 16},
		{"c^2 does not divide p", defaultParams(8, 4), 16},
		{"teams do not divide n", defaultParams(16, 2), 12},
		{"zero p", defaultParams(0, 1), 16},
	} {
		if _, err := NewAllPairs(ps[:tc.n], tc.pr); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	s, err := NewAllPairs(ps, defaultParams(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Advance(-1); err == nil {
		t.Error("negative steps: expected error")
	}
}

func TestBaselinesMatchSerial(t *testing.T) {
	pr := defaultParams(16, 1)
	ps := phys.InitUniform(32, pr.Box, 11)
	want := serialRun(ps, pr.Law, pr.Box, 2, pr.DT)
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

	got, _, err := advance(NewNaiveAllGather, ps, pr, 2)
	check("NaiveAllGather", got, err)

	got, _, err = advance(NewParticleDecomposition, ps, pr, 2)
	check("ParticleDecomposition", got, err)

	fd := pr
	fd.P = 16
	got, _, err = advance(NewForceDecomposition, ps, fd, 2)
	check("ForceDecomposition", got, err)
}
