package phys

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func TestLJForceZeroAtMinimum(t *testing.T) {
	l := Law{Kind: LennardJones, Epsilon: 1, Sigma: 1} // no softening
	rMin := math.Pow(2, 1.0/6.0) * l.Sigma
	f := l.Pair(vec.Vec2{X: rMin}, vec.Vec2{})
	if math.Abs(f.X) > 1e-12 {
		t.Errorf("force at the LJ minimum = %g, want ~0", f.X)
	}
	// Repulsive inside the minimum, attractive beyond it.
	if f := l.Pair(vec.Vec2{X: 0.9 * rMin}, vec.Vec2{}); f.X <= 0 {
		t.Errorf("force inside minimum %g not repulsive", f.X)
	}
	if f := l.Pair(vec.Vec2{X: 1.5 * rMin}, vec.Vec2{}); f.X >= 0 {
		t.Errorf("force beyond minimum %g not attractive", f.X)
	}
}

func TestLJPotentialDepth(t *testing.T) {
	l := Law{Kind: LennardJones, Epsilon: 2.5, Sigma: 1}
	u := l.PairPotential(vec.Vec2{X: math.Pow(2, 1.0/6.0) * l.Sigma}, vec.Vec2{})
	if math.Abs(u+2.5) > 1e-12 {
		t.Errorf("potential at minimum = %g, want -ε = -2.5", u)
	}
	// Zero crossing at r = σ.
	u0 := l.PairPotential(vec.Vec2{X: 1}, vec.Vec2{})
	if math.Abs(u0) > 1e-12 {
		t.Errorf("potential at σ = %g, want 0", u0)
	}
}

// TestForceIsNegativePotentialGradient is the fundamental consistency
// property: F(r) = −dU/dr for both potential families, checked by finite
// differences (away from any cutoff, where the LJ shift is a constant
// that differentiates away).
func TestForceIsNegativePotentialGradient(t *testing.T) {
	laws := []Law{
		{Kind: Repulsive, K: 1.7},
		{Kind: LennardJones, Epsilon: 1.3, Sigma: 0.9},
	}
	for _, l := range laws {
		for _, r := range []float64{0.8, 1.0, 1.3, 2.0, 3.5} {
			const h = 1e-6
			uPlus := l.PairPotential(vec.Vec2{X: r + h}, vec.Vec2{})
			uMinus := l.PairPotential(vec.Vec2{X: r - h}, vec.Vec2{})
			grad := (uPlus - uMinus) / (2 * h)
			f := l.Pair(vec.Vec2{X: r}, vec.Vec2{}).X
			if math.Abs(f+grad) > 1e-5*math.Max(1, math.Abs(f)) {
				t.Errorf("%v at r=%g: F=%g but -dU/dr=%g", l.Kind, r, f, -grad)
			}
		}
	}
}

func TestLJShiftedCutoffContinuity(t *testing.T) {
	// The truncated-and-shifted LJ potential approaches zero at the
	// cutoff, the "correction term" style the paper alludes to.
	l := LJLaw(1, 1).WithCutoff(2.5)
	just := l.PairPotential(vec.Vec2{X: 2.499999}, vec.Vec2{})
	if math.Abs(just) > 1e-4 {
		t.Errorf("potential just inside cutoff = %g, want ~0", just)
	}
	if u := l.PairPotential(vec.Vec2{X: 2.6}, vec.Vec2{}); u != 0 {
		t.Errorf("potential beyond cutoff = %g", u)
	}
}

func TestLJParallelMatchesSerial(t *testing.T) {
	// The communication machinery is law-agnostic: an LJ workload must
	// verify against the serial reference exactly like the paper's
	// repulsive one. (The full cross-check through the parallel driver
	// lives in the core package; here the two serial kernels agree.)
	box := NewBox(10, 2, Reflective)
	law := LJLaw(0.2, 0.8).WithCutoff(2.5)
	a := InitLattice(60, box, 5)
	b := append([]Particle(nil), a...)
	BruteForceCutoff(a, law, box)
	cl := NewCellList(b, 2.5, box)
	cl.Forces(b, law)
	for i := range a {
		if d := a[i].Force.Sub(b[i].Force).Norm(); d > 1e-10 {
			t.Fatalf("particle %d: LJ cell list deviates by %g", i, d)
		}
	}
}

func TestPotentialString(t *testing.T) {
	if Repulsive.String() != "repulsive" || LennardJones.String() != "lennard-jones" {
		t.Error("potential names wrong")
	}
	if Potential(9).String() == "" {
		t.Error("unknown potential should render")
	}
}
