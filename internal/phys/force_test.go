package phys

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func TestPairForceDirectionAndMagnitude(t *testing.T) {
	law := Law{K: 1} // no softening: exact 1/r²
	f := law.Pair(vec.Vec2{X: 2}, vec.Vec2{})
	// Repulsive: force on the particle at x=2 from one at the origin
	// points in +x with magnitude 1/4.
	if f.Y != 0 || math.Abs(f.X-0.25) > 1e-12 {
		t.Errorf("Pair = %+v, want {0.25 0}", f)
	}
	// Magnitude drops with the square of the distance.
	f2 := law.Pair(vec.Vec2{X: 4}, vec.Vec2{})
	if math.Abs(f2.X-0.0625) > 1e-12 {
		t.Errorf("at double distance force %g, want quarter of 0.25", f2.X)
	}
}

func TestPairForceAntisymmetric(t *testing.T) {
	law := DefaultLaw()
	a, b := vec.Vec2{X: 1.3, Y: 0.4}, vec.Vec2{X: -0.2, Y: 2.2}
	fab := law.Pair(a, b)
	fba := law.Pair(b, a)
	if fab.Add(fba).Norm() > 1e-15 {
		t.Errorf("forces not antisymmetric: %+v vs %+v", fab, fba)
	}
}

func TestPairForceCutoff(t *testing.T) {
	law := DefaultLaw().WithCutoff(1.0)
	if f := law.Pair(vec.Vec2{X: 1.5}, vec.Vec2{}); f != (vec.Vec2{}) {
		t.Errorf("force beyond cutoff = %+v, want zero", f)
	}
	if f := law.Pair(vec.Vec2{X: 0.5}, vec.Vec2{}); f == (vec.Vec2{}) {
		t.Error("force inside cutoff is zero")
	}
}

func TestCoincidentParticlesSoftened(t *testing.T) {
	law := DefaultLaw()
	f := law.Pair(vec.Vec2{X: 1, Y: 1}, vec.Vec2{X: 1, Y: 1})
	if math.IsNaN(f.X) || math.IsNaN(f.Y) {
		t.Error("coincident pair produced NaN")
	}
	hard := Law{K: 1}
	if f := hard.Pair(vec.Vec2{}, vec.Vec2{}); f != (vec.Vec2{}) {
		t.Errorf("unsoftened coincident pair = %+v, want zero", f)
	}
}

func TestAccumulateSkipsSelfByID(t *testing.T) {
	kern := DefaultLaw().Kernel()
	ps := []Particle{
		{ID: 0, Pos: vec.Vec2{X: 1}},
		{ID: 1, Pos: vec.Vec2{X: 2}},
	}
	replicas := append([]Particle(nil), ps...)
	n := kern.AccumulateIn(ps, replicas, Box{})
	if n != 2 {
		t.Errorf("pair evaluations = %d, want 2 (self pairs skipped)", n)
	}
	// Net force of a symmetric pair evaluation is zero.
	if nf := NetForce(ps); nf.Norm() > 1e-12 {
		t.Errorf("net force %+v, want zero", nf)
	}
}

func TestBruteForceMatchesManualSum(t *testing.T) {
	law := DefaultLaw()
	ps := []Particle{
		{ID: 0, Pos: vec.Vec2{X: 0, Y: 0}},
		{ID: 1, Pos: vec.Vec2{X: 1, Y: 0}},
		{ID: 2, Pos: vec.Vec2{X: 0, Y: 1}},
	}
	BruteForce(ps, law)
	want := law.Pair(ps[0].Pos, ps[1].Pos).Add(law.Pair(ps[0].Pos, ps[2].Pos))
	if ps[0].Force.Sub(want).Norm() > 1e-14 {
		t.Errorf("force on particle 0 = %+v, want %+v", ps[0].Force, want)
	}
}

func TestBruteForceCutoffMatchesFilteredBruteForce(t *testing.T) {
	box := NewBox(10, 2, Reflective)
	ps := InitUniform(40, box, 5)
	law := DefaultLaw().WithCutoff(2.5)
	a := append([]Particle(nil), ps...)
	BruteForceCutoff(a, law, box)
	// Manual: cutoff law over all pairs (reflective box: plain metric).
	b := append([]Particle(nil), ps...)
	BruteForce(b, law)
	for i := range a {
		if a[i].Force.Sub(b[i].Force).Norm() > 1e-12 {
			t.Fatalf("particle %d: cutoff %+v vs filtered %+v", i, a[i].Force, b[i].Force)
		}
	}
}

func TestBruteForceCutoffPeriodicWraps(t *testing.T) {
	box := NewBox(10, 1, Periodic)
	law := DefaultLaw().WithCutoff(2)
	ps := []Particle{
		{ID: 0, Pos: vec.Vec2{X: 0.5}},
		{ID: 1, Pos: vec.Vec2{X: 9.5}}, // 1.0 away through the boundary
	}
	BruteForceCutoff(ps, law, box)
	if ps[0].Force == (vec.Vec2{}) {
		t.Error("periodic image pair not evaluated")
	}
	// Force on particle 0 should push it away from the image at -0.5,
	// i.e. in +x.
	if ps[0].Force.X <= 0 {
		t.Errorf("force direction %+v ignores minimum image", ps[0].Force)
	}
}

func TestAccumulateInHonorsCutoffAndBox(t *testing.T) {
	box := NewBox(10, 1, Periodic)
	law := DefaultLaw().WithCutoff(2)
	targets := []Particle{{ID: 0, Pos: vec.Vec2{X: 0.5}}}
	sources := []Particle{{ID: 1, Pos: vec.Vec2{X: 9.5}}, {ID: 2, Pos: vec.Vec2{X: 5}}}
	kern := law.Kernel()
	kern.AccumulateIn(targets, sources, box)
	want := law.Pair(vec.Vec2{X: 1}, vec.Vec2{}) // image displacement
	if targets[0].Force.Sub(want).Norm() > 1e-14 {
		t.Errorf("AccumulateIn = %+v, want %+v", targets[0].Force, want)
	}
}

func TestCountPairsWithin(t *testing.T) {
	box := NewBox(10, 1, Reflective)
	ps := []Particle{
		{ID: 0, Pos: vec.Vec2{X: 1}},
		{ID: 1, Pos: vec.Vec2{X: 2}},
		{ID: 2, Pos: vec.Vec2{X: 8}},
	}
	if got := CountPairsWithin(ps, 1.5, box); got != 2 {
		t.Errorf("CountPairsWithin = %d, want 2 (one unordered pair)", got)
	}
}

func TestPairPotential(t *testing.T) {
	law := Law{K: 2}
	if got := law.PairPotential(vec.Vec2{X: 4}, vec.Vec2{}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("potential = %g, want 0.5", got)
	}
	cut := law.WithCutoff(1)
	if got := cut.PairPotential(vec.Vec2{X: 4}, vec.Vec2{}); got != 0 {
		t.Errorf("potential beyond cutoff = %g", got)
	}
}
