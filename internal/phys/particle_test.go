package phys

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestWireSizeIs52(t *testing.T) {
	// The paper's particles are 52 bytes (Section III-C).
	if WireSize != 52 {
		t.Fatalf("WireSize = %d, want 52", WireSize)
	}
	var p Particle
	if got := len(p.Encode(nil)); got != 52 {
		t.Fatalf("encoded size = %d, want 52", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	roundTrip := func(id uint32, px, py, vx, vy, fx, fy float64) bool {
		in := Particle{ID: id, Pos: vec.Vec2{X: px, Y: py}, Vel: vec.Vec2{X: vx, Y: vy}, Force: vec.Vec2{X: fx, Y: fy}}
		var out Particle
		rest, err := out.Decode(in.Encode(nil))
		if err != nil || len(rest) != 0 {
			return false
		}
		// NaN-safe bitwise comparison through re-encoding.
		a := in.Encode(nil)
		b := out.Encode(nil)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	var p Particle
	if _, err := p.Decode(make([]byte, WireSize-1)); err == nil {
		t.Error("short decode should fail")
	}
}

func TestSliceCodec(t *testing.T) {
	box := NewBox(5, 2, Reflective)
	ps := InitUniform(17, box, 3)
	out, err := DecodeSlice(EncodeSlice(ps))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(ps) {
		t.Fatalf("decoded %d particles, want %d", len(out), len(ps))
	}
	for i := range ps {
		if out[i] != ps[i] {
			t.Fatalf("particle %d mismatch: %+v vs %+v", i, out[i], ps[i])
		}
	}
	if _, err := DecodeSlice(make([]byte, 53)); err == nil {
		t.Error("misaligned buffer should fail")
	}
	if got, err := DecodeSlice(nil); err != nil || len(got) != 0 {
		t.Error("empty buffer should decode to empty slice")
	}
}

func TestClearForces(t *testing.T) {
	ps := []Particle{{Force: vec.Vec2{X: 1, Y: 2}}, {Force: vec.Vec2{X: 3}}}
	ClearForces(ps)
	for i := range ps {
		if ps[i].Force != (vec.Vec2{}) {
			t.Fatalf("force %d not cleared", i)
		}
	}
}

func TestSortHelpers(t *testing.T) {
	box := NewBox(5, 2, Reflective)
	ps := InitUniform(50, box, 11)
	slices.Reverse(ps)
	SortByID(ps)
	for i := range ps {
		if ps[i].ID != uint32(i) {
			t.Fatalf("SortByID: position %d has ID %d", i, ps[i].ID)
		}
	}
}

func TestInitDeterministicAndInBox(t *testing.T) {
	box := NewBox(8, 2, Reflective)
	a := InitUniform(100, box, 42)
	b := InitUniform(100, box, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("InitUniform not deterministic")
		}
		if !box.Contains(a[i].Pos) {
			t.Fatalf("particle %d outside box: %+v", i, a[i].Pos)
		}
	}
	l := InitLattice(100, box, 42)
	for i := range l {
		if !box.Contains(l[i].Pos) {
			t.Fatalf("lattice particle %d outside box: %+v", i, l[i].Pos)
		}
	}
	// 1D initializers keep Y at zero.
	box1 := NewBox(8, 1, Reflective)
	for _, p := range InitLattice(50, box1, 1) {
		if p.Pos.Y != 0 || p.Vel.Y != 0 {
			t.Fatal("1D lattice particle has Y components")
		}
	}
}

func TestInteractions(t *testing.T) {
	if got := interactions(10, 20, 0); got != 200 {
		t.Errorf("Interactions(disjoint) = %d, want 200", got)
	}
	// Replicated pass: every target meets its own ID once among the
	// sources, and those diagonal pairs are skipped without being counted.
	if got := interactions(10, 10, 10); got != 90 {
		t.Errorf("Interactions(replica) = %d, want 90", got)
	}
}

// TestInteractionsMatchesAccumulate pins the prediction to the counter
// AccumulateIn actually returns, for disjoint, replicated, and partially
// overlapping ID sets — the bug the corrected signature fixes.
func TestInteractionsMatchesAccumulate(t *testing.T) {
	box := NewBox(10, 2, Reflective)
	kern := DefaultLaw().Kernel()
	targets := InitUniform(8, box, 1)
	cases := []struct {
		name    string
		sources []Particle
		shared  int
	}{
		{"disjoint", relabel(InitUniform(6, box, 2), 100), 0},
		{"replica", append([]Particle(nil), targets...), len(targets)},
		{"overlap", append(append([]Particle(nil), targets[:3]...), relabel(InitUniform(4, box, 3), 200)...), 3},
	}
	for _, tc := range cases {
		got := kern.AccumulateIn(append([]Particle(nil), targets...), tc.sources, box)
		want := interactions(len(targets), len(tc.sources), tc.shared)
		if got != want {
			t.Errorf("%s: Accumulate counted %d, Interactions predicts %d", tc.name, got, want)
		}
	}
}

// relabel offsets every particle ID by base, making ID sets disjoint.
func relabel(ps []Particle, base uint32) []Particle {
	for i := range ps {
		ps[i].ID += base
	}
	return ps
}

func TestMaxForceErrorPanics(t *testing.T) {
	a := []Particle{{ID: 1}}
	b := []Particle{{ID: 2}}
	defer func() {
		if recover() == nil {
			t.Error("ID mismatch should panic")
		}
	}()
	MaxForceError(a, b)
}

func TestMaxForceErrorValue(t *testing.T) {
	a := []Particle{{ID: 1, Force: vec.Vec2{X: 1}}}
	b := []Particle{{ID: 1, Force: vec.Vec2{X: 2}}}
	if got := MaxForceError(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MaxForceError = %g, want 0.5", got)
	}
	if got := MaxForceError(a, a); got != 0 {
		t.Errorf("identical forces give error %g", got)
	}
}

// interactions is the number of pairwise force evaluations performed
// when ni target particles are updated against nj source particles of
// which shared carry an ID also present among the targets. AccumulateIn
// skips an equal-ID pair without counting it, so each shared ID removes
// exactly one evaluation from the ni·nj total (IDs are unique within a
// slice throughout this repository). Pass shared = ni when the sources
// are a replica of the targets — the diagonal visit of every replicated
// pass — and shared = 0 for disjoint sets.
func interactions(ni, nj, shared int) int64 {
	return int64(ni)*int64(nj) - int64(shared)
}
