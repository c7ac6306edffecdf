package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec2Algebra(t *testing.T) {
	// Commutativity and inverse properties over random vectors.
	addCommutes := func(ax, ay, bx, by float64) bool {
		a, b := Vec2{ax, ay}, Vec2{bx, by}
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(addCommutes, nil); err != nil {
		t.Error(err)
	}
	subInverts := func(ax, ay, bx, by float64) bool {
		a, b := Vec2{ax, ay}, Vec2{bx, by}
		return a.Sub(b) == a.Add(b.Neg())
	}
	if err := quick.Check(subInverts, nil); err != nil {
		t.Error(err)
	}
}

func TestNormAndDist(t *testing.T) {
	v := Vec2{3, 4}
	if v.Norm() != 5 {
		t.Errorf("Norm = %g, want 5", v.Norm())
	}
	if v.Norm2() != 25 {
		t.Errorf("Norm2 = %g, want 25", v.Norm2())
	}
	w := Vec2{0, 0}
	if v.Dist(w) != 5 || v.Dist2(w) != 25 {
		t.Errorf("Dist/Dist2 = %g/%g, want 5/25", v.Dist(w), v.Dist2(w))
	}
	// Triangle inequality on finite random vectors.
	tri := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax+ay+bx+by) || math.IsInf(ax+ay+bx+by, 0) {
			return true
		}
		a, b := Vec2{ax, ay}, Vec2{bx, by}
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-9
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Error(err)
	}
}

func TestDotAndScale(t *testing.T) {
	a := Vec2{2, -1}
	if got := a.Dot(Vec2{3, 4}); got != 2 {
		t.Errorf("Dot = %g, want 2", got)
	}
	if got := a.Scale(-2); got != (Vec2{-4, 2}) {
		t.Errorf("Scale = %+v", got)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g outside [0,1)", f)
		}
		if v := r.Range(-3, 5); v < -3 || v >= 5 {
			t.Fatalf("Range = %g outside [-3,5)", v)
		}
	}
}

func TestRNGUniformish(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean %g far from 0.5", mean)
	}
}
