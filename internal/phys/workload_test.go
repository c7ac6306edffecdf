package phys

import (
	"testing"

	"repro/internal/vec"
)

func newTestRNG() *vec.RNG { return vec.NewRNG(99) }

func TestInitClusteredStaysInBox(t *testing.T) {
	box := NewBox(20, 2, Reflective)
	ps := InitClustered(200, box, 3, 1.0, 11)
	if len(ps) != 200 {
		t.Fatalf("got %d particles", len(ps))
	}
	seen := map[uint32]bool{}
	for i := range ps {
		if !box.Contains(ps[i].Pos) {
			t.Fatalf("particle %d outside box: %+v", i, ps[i].Pos)
		}
		if seen[ps[i].ID] {
			t.Fatalf("duplicate ID %d", ps[i].ID)
		}
		seen[ps[i].ID] = true
	}
	// 1D variant keeps Y zeroed.
	box1 := NewBox(20, 1, Reflective)
	for _, p := range InitClustered(50, box1, 2, 1.0, 11) {
		if p.Pos.Y != 0 {
			t.Fatal("1D clustered particle has Y position")
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	// Mean ≈ 0, variance ≈ 1 over many samples.
	r := newTestRNG()
	var sum, sum2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		g := gaussian(r)
		sum += g
		sum2 += g * g
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("gaussian mean %g", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("gaussian variance %g", variance)
	}
}
