package vec

import (
	"math"
	"testing"
)

func TestNegMask(t *testing.T) {
	cases := []struct {
		x    float64
		want uint64
	}{
		{1.5, 0},
		{-1.5, ^uint64(0)},
		{0, 0},
		{math.Copysign(0, -1), ^uint64(0)},
		{math.Inf(1), 0},
		{math.Inf(-1), ^uint64(0)},
		{5e-324, 0}, // smallest subnormal
		{-5e-324, ^uint64(0)},
		{math.MaxFloat64, 0},
		{-math.MaxFloat64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := NegMask(c.x); got != c.want {
			t.Errorf("NegMask(%g) = %#x, want %#x", c.x, got, c.want)
		}
	}
}

// TestNegMaskSubtractionIsComparison pins the property the cutoff gates
// rely on: NegMask(a-b) != 0 exactly when b > a, even when a-b is far
// below the normal range — IEEE gradual underflow never flushes a
// nonzero difference of two doubles to zero or flips its sign.
func TestNegMaskSubtractionIsComparison(t *testing.T) {
	values := []float64{
		0, 5e-324, 1e-310, 1e-300, 1, 1 + 1e-16, 1.5, 2, 0.81,
		math.Nextafter(0.81, 0), math.Nextafter(0.81, 1), 1e300,
	}
	for _, a := range values {
		for _, b := range values {
			got := NegMask(a-b) != 0
			if got != (b > a) {
				t.Errorf("NegMask(%g-%g) != 0 is %v, want %v", a, b, got, b > a)
			}
		}
	}
}

// TestMasked verifies the select is exact: an all-ones mask passes the
// value through bit for bit (including -0 and NaN payloads), a zero
// mask yields exactly +0.
func TestMasked(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1.25, -3.5, 5e-324, math.Inf(-1), math.NaN()}
	for _, x := range values {
		if got := Masked(x, ^uint64(0)); math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("Masked(%g, ones) = %#x, want %#x", x, math.Float64bits(got), math.Float64bits(x))
		}
		if got := Masked(x, 0); math.Float64bits(got) != 0 {
			t.Errorf("Masked(%g, 0) = %#x, want +0", x, math.Float64bits(got))
		}
	}
}

func TestTileConstants(t *testing.T) {
	var soa SoA
	if len(soa.X) != TileCap || len(soa.Y) != TileCap || len(soa.ID) != TileCap {
		t.Fatalf("SoA lanes not TileCap-sized")
	}
}
