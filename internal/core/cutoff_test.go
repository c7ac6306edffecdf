package core

import (
	"fmt"
	"testing"

	"repro/internal/phys"
)

// serialCutoffRun advances the particles with the brute-force cutoff
// kernel, the ground truth for the parallel cutoff algorithm.
func serialCutoffRun(ps []phys.Particle, law phys.Law, box phys.Box, steps int, dt float64) []phys.Particle {
	out := append([]phys.Particle(nil), ps...)
	for s := 0; s < steps; s++ {
		phys.BruteForceCutoff(out, law, box)
		phys.Step(out, box, dt)
	}
	phys.SortByID(out)
	return out
}

func cutoffParams(p, c, dim int, boundary phys.Boundary) Params {
	box := phys.NewBox(16, dim, boundary)
	return Params{
		P:     p,
		C:     c,
		Law:   phys.DefaultLaw().WithCutoff(box.L / 4),
		Box:   box,
		DT:    5e-4,
		Steps: 3,
	}
}

func checkAgainst(t *testing.T, got, want []phys.Particle, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d particles, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("particle %d: ID %d != %d", i, got[i].ID, want[i].ID)
		}
		if d := got[i].Pos.Dist(want[i].Pos); d > tol {
			t.Fatalf("particle ID %d deviates by %g (pos %+v vs %+v)", got[i].ID, d, got[i].Pos, want[i].Pos)
		}
	}
}

func TestCutoff1DMatchesSerial(t *testing.T) {
	cases := []struct {
		p, c, n  int
		boundary phys.Boundary
	}{
		{8, 1, 64, phys.Reflective},
		{16, 2, 64, phys.Reflective},
		{16, 1, 48, phys.Reflective},
		{32, 4, 96, phys.Reflective},
		{8, 1, 64, phys.Periodic},
		{16, 2, 64, phys.Periodic},
		{32, 4, 96, phys.Periodic},
		{24, 3, 72, phys.Reflective},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p=%d/c=%d/n=%d/%v", tc.p, tc.c, tc.n, tc.boundary), func(t *testing.T) {
			t.Parallel()
			pr := cutoffParams(tc.p, tc.c, 1, tc.boundary)
			ps := phys.InitLattice(tc.n, pr.Box, 9)
			want := serialCutoffRun(ps, pr.Law, pr.Box, pr.Steps, pr.DT)
			got, _, err := Cutoff(ps, pr)
			if err != nil {
				t.Fatalf("Cutoff: %v", err)
			}
			checkAgainst(t, got, want, 1e-9)
		})
	}
}

func TestCutoff2DMatchesSerial(t *testing.T) {
	cases := []struct {
		p, c, n  int
		boundary phys.Boundary
	}{
		{16, 1, 64, phys.Reflective},  // 16 teams, 4x4 grid
		{32, 2, 64, phys.Reflective},  // 16 teams
		{64, 4, 128, phys.Reflective}, // 16 teams
		{16, 1, 64, phys.Periodic},
		{32, 2, 64, phys.Periodic},
		{128, 2, 128, phys.Reflective}, // 64 teams, 8x8 grid, m=2
		{144, 4, 144, phys.Periodic},   // 36 teams, 6x6 grid
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p=%d/c=%d/n=%d/%v", tc.p, tc.c, tc.n, tc.boundary), func(t *testing.T) {
			t.Parallel()
			pr := cutoffParams(tc.p, tc.c, 2, tc.boundary)
			ps := phys.InitLattice(tc.n, pr.Box, 13)
			want := serialCutoffRun(ps, pr.Law, pr.Box, pr.Steps, pr.DT)
			got, _, err := Cutoff(ps, pr)
			if err != nil {
				t.Fatalf("Cutoff: %v", err)
			}
			checkAgainst(t, got, want, 1e-9)
		})
	}
}

func TestCutoffLargerReplication(t *testing.T) {
	// Larger c relative to the window, including c not dividing the
	// window size (uneven layer loads).
	pr := cutoffParams(40, 5, 1, phys.Reflective) // 8 teams, m=2, window 5
	ps := phys.InitLattice(64, pr.Box, 21)
	want := serialCutoffRun(ps, pr.Law, pr.Box, pr.Steps, pr.DT)
	got, _, err := Cutoff(ps, pr)
	if err != nil {
		t.Fatalf("Cutoff: %v", err)
	}
	checkAgainst(t, got, want, 1e-9)
}

func TestCutoffRejectsBadParams(t *testing.T) {
	ps := phys.InitLattice(64, phys.NewBox(16, 1, phys.Reflective), 1)
	for _, tc := range []struct {
		name string
		pr   Params
	}{
		{"no cutoff radius", func() Params { p := cutoffParams(8, 1, 1, phys.Reflective); p.Law.Cutoff = 0; return p }()},
		{"window too large", func() Params { p := cutoffParams(4, 1, 1, phys.Reflective); p.Law.Cutoff = p.Box.L / 2; return p }()},
		{"c exceeds window", cutoffParams(64, 8, 1, phys.Reflective)}, // 8 teams, m=2, window 5 < 8
	} {
		if _, _, err := Cutoff(ps, tc.pr); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Non-square team count in 2D.
	pr2 := cutoffParams(8, 1, 2, phys.Reflective)
	ps2 := phys.InitLattice(64, pr2.Box, 1)
	if _, _, err := Cutoff(ps2, pr2); err == nil {
		t.Error("non-square 2D team count: expected error")
	}
}

func TestCutoffConservesParticles(t *testing.T) {
	// Run long enough for real migration to happen and check no
	// particle is lost or duplicated.
	pr := cutoffParams(16, 2, 1, phys.Reflective)
	pr.Steps = 25
	pr.DT = 2e-3
	ps := phys.InitLattice(64, pr.Box, 33)
	got, _, err := Cutoff(ps, pr)
	if err != nil {
		t.Fatalf("Cutoff: %v", err)
	}
	if len(got) != len(ps) {
		t.Fatalf("particle count changed: %d -> %d", len(ps), len(got))
	}
	seen := make(map[uint32]bool, len(got))
	for i := range got {
		if seen[got[i].ID] {
			t.Fatalf("duplicate particle ID %d", got[i].ID)
		}
		seen[got[i].ID] = true
		if !pr.Box.Contains(got[i].Pos) {
			t.Fatalf("particle %d escaped the box: %+v", got[i].ID, got[i].Pos)
		}
	}
}
