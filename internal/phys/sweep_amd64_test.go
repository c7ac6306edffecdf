//go:build amd64 && !purego

package phys

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vec"
)

// The tests here hold the AVX2 sweeps to the Go loops they stand in for
// (accumulateRepOpen, accumulateInRepCut): every force bit and the pair
// count, on inputs built to reach each mask and each tail.

// TestAccumulateBlocksMatchesPerBlock's long block (kernel_test.go, which
// the portable build compiles too) must span two assembly calls.
const _ = uint(longBlock - sweepChunk - 1)

var mulAddProbe = [3]float64{1 + 0x1p-30, 1 - 0x1p-30, -1}

//go:noinline
func mulAdd(x, y, z float64) float64 { return x*y + z }

// needSweeps skips when the comparison cannot be made: without AVX2 the
// sweeps never run, and a compiler that contracts x*y+z into a fused
// multiply-add rounds the Go loops differently from the assembly, which
// never fuses. (Go 1.24 contracts on arm64, ppc64, riscv64 and s390x but
// not on amd64 at any GOAMD64 level; the probe is for the toolchain that
// starts to. x·y here is 1-2⁻⁶⁰, which rounds to 1 unless fused.)
func needSweeps(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 on this host: Accumulate and AccumulateIn run the Go loops")
	}
	if mulAdd(mulAddProbe[0], mulAddProbe[1], mulAddProbe[2]) != 0 {
		t.Skip("this build fuses x*y+z in the Go loops; the bitwise identity to the assembly is asserted for unfused builds (default GOAMD64=v1)")
	}
}

// checkSweeps runs law's repulsive sweep and its Go loop on copies of
// targets and compares them: the open law through Accumulate's pair, a
// cutoff law through AccumulateIn's under box.
func checkSweeps(t *testing.T, law Law, box Box, targets, sources []Particle) {
	t.Helper()
	k := law.Kernel()
	want := append([]Particle(nil), targets...)
	got := append([]Particle(nil), targets...)
	var nWant, nGot int64
	if law.Cutoff > 0 {
		nWant = k.accumulateInRepCut(want, sources, box)
		nGot = k.sweepInRepCut(got, sources, box)
	} else {
		nWant = k.accumulateRepOpen(want, sources)
		nGot = k.sweepRepOpen(got, sources)
	}
	if nGot != nWant {
		t.Fatalf("sweep counted %d pairs, Go loop %d", nGot, nWant)
	}
	compareForces(t, got, want)
}

var sweepBoxes = []Box{
	{L: 3, Dim: 2, Boundary: Reflective},
	{L: 3, Dim: 1, Boundary: Reflective},
	{L: 3, Dim: 2, Boundary: Periodic},
	{L: 3, Dim: 1, Boundary: Periodic},
}

func sweepLaws() []Law {
	var laws []Law
	for _, rc := range []float64{0, 0.9, 2.5} {
		for _, soft := range []float64{0, 1e-3} {
			laws = append(laws, Law{Kind: Repulsive, K: 1.3, Softening: soft, Cutoff: rc})
		}
	}
	return laws
}

func boxName(b Box) string { return fmt.Sprintf("%v%dd", b.Boundary, b.Dim) }

// TestSweepShapes covers every group remainder and loop tail: 0 to 9
// targets against no, one, an odd number of and more than one chunk of
// sources, half of which carry target IDs.
func TestSweepShapes(t *testing.T) {
	needSweeps(t)
	for _, box := range sweepBoxes {
		for _, law := range sweepLaws() {
			for nt := 0; nt <= 9; nt++ {
				for _, ns := range []int{0, 1, 7, sweepChunk + 3} {
					targets := InitUniform(nt, box, uint64(nt)+1)
					seedForces(targets)
					sources := InitUniform(ns, box, uint64(ns)+50)
					for j := range sources {
						if j%2 == 1 {
							sources[j].ID += uint32(nt) // odd sources are strangers
						}
					}
					t.Run(fmt.Sprintf("%s/rc%g_soft%g/%dx%d", boxName(box), law.Cutoff, law.Softening, nt, ns), func(t *testing.T) {
						checkSweeps(t, law, box, targets, sources)
					})
				}
			}
		}
	}
}

// TestSweepDiagonalBlock is the replicated visit: the sources are the
// targets themselves, so every target meets its own ID exactly once, at
// zero distance, and must neither count it nor add for it.
func TestSweepDiagonalBlock(t *testing.T) {
	needSweeps(t)
	for _, box := range sweepBoxes {
		for _, law := range sweepLaws() {
			targets := InitUniform(13, box, 9)
			seedForces(targets)
			sources := append([]Particle(nil), targets...)
			checkSweeps(t, law, box, targets, sources)
			if law.Cutoff > 0 {
				continue
			}
			k := law.Kernel()
			n := k.sweepRepOpen(append([]Particle(nil), targets...), sources)
			if want := Interactions(len(targets), len(sources), len(targets)); n != want {
				t.Fatalf("%s: diagonal block counted %d pairs, Interactions says %d", boxName(box), n, want)
			}
		}
	}
}

// TestSweepCoincidentPairs places distinct-ID sources exactly on targets.
// With zero softening r2 is 0 and the pair adds an exact +0 — which
// turns a -0 accumulator into +0 — and with softening it adds a zero
// displacement times a finite weight.
func TestSweepCoincidentPairs(t *testing.T) {
	needSweeps(t)
	negZero := math.Copysign(0, -1)
	for _, box := range sweepBoxes {
		for _, law := range sweepLaws() {
			targets := InitUniform(8, box, 3)
			for i := range targets {
				targets[i].Force = vec.Vec2{X: negZero, Y: negZero}
			}
			// Only coincident sources: each target sees one r2 == 0 pair (or
			// a softened one) and otherwise sources far beyond any cutoff.
			var sources []Particle
			for i, p := range targets {
				p.ID = uint32(100 + i)
				sources = append(sources, p)
			}
			checkSweeps(t, law, box, targets, sources)

			// And mixed in among ordinary sources, at both ends.
			mixed := append(append([]Particle(nil), sources[:4]...), InitUniform(9, box, 4)...)
			for j := 4; j < len(mixed); j++ {
				mixed[j].ID += 200
			}
			mixed = append(mixed, sources[4:]...)
			checkSweeps(t, law, box, targets, mixed)
		}
	}
}

// TestSweepKeepsNegativeZero pins the blend: a target that only meets
// its own ID and sources beyond the cutoff is never added to, so a -0
// accumulator must come back as -0, in a full group and in a mixed one.
func TestSweepKeepsNegativeZero(t *testing.T) {
	needSweeps(t)
	negZero := math.Copysign(0, -1)
	box := NewBox(10, 2, Reflective)
	law := Law{Kind: Repulsive, K: 1.3, Cutoff: 0.05}
	var targets []Particle
	for i := 0; i < 4; i++ {
		targets = append(targets, Particle{ID: uint32(i), Pos: vec.Vec2{X: 1 + 0.1*float64(i), Y: 1},
			Force: vec.Vec2{X: negZero, Y: negZero}})
	}
	far := []Particle{{ID: 50, Pos: vec.Vec2{X: 9, Y: 9}}, targets[2], {ID: 51, Pos: vec.Vec2{X: 8, Y: 1}}}
	got := append([]Particle(nil), targets...)
	k := law.Kernel()
	k.sweepInRepCut(got, far, box)
	for i := range got {
		if !bitsEqual(got[i].Force.X, negZero) || !bitsEqual(got[i].Force.Y, negZero) {
			t.Fatalf("target %d: untouched -0 accumulator came back as (%x, %x)", i,
				math.Float64bits(got[i].Force.X), math.Float64bits(got[i].Force.Y))
		}
	}
	checkSweeps(t, law, box, targets, far)

	// One lane in reach, three out: the group runs the divider and the
	// three must still be blended through untouched.
	near := append(far, Particle{ID: 52, Pos: vec.Vec2{X: 0.97, Y: 1}})
	checkSweeps(t, law, box, targets, near)

	// The open law skips only the identity pair.
	open := Law{Kind: Repulsive, K: 1.3}
	checkSweeps(t, open, box, targets, targets[:1])
}

// TestSweepAtCutoff puts pairs exactly on the cutoff sphere (d2 == rc2,
// which interacts) and one ulp outside it (which does not).
func TestSweepAtCutoff(t *testing.T) {
	needSweeps(t)
	const rc = 0.75 // rc*rc, and 0.75*0.75 below, are exact
	for _, box := range sweepBoxes {
		for _, soft := range []float64{0, 1e-3} {
			law := Law{Kind: Repulsive, K: 1.3, Softening: soft, Cutoff: rc}
			var targets, sources []Particle
			for i := 0; i < 6; i++ {
				x := 1 + float64(i)/64
				if d := x - (x + rc); d*d != rc*rc {
					t.Fatalf("geometry: pair %d is not exactly on the cutoff sphere", i)
				}
				targets = append(targets, Particle{ID: uint32(i), Pos: vec.Vec2{X: x}})
				sources = append(sources,
					Particle{ID: uint32(100 + i), Pos: vec.Vec2{X: x + rc}},
					Particle{ID: uint32(200 + i), Pos: vec.Vec2{X: math.Nextafter(x+rc, 10)}},
					Particle{ID: uint32(300 + i), Pos: vec.Vec2{X: x - rc}})
			}
			seedForces(targets)
			checkSweeps(t, law, box, targets, sources)
		}
	}
}

// TestSweepAcrossSeam runs a block hugging the low edge of a periodic
// box against one hugging the high edge, in x, in y and in both, so the
// minimum image is a shifted one — down for one block, up when the roles
// swap.
func TestSweepAcrossSeam(t *testing.T) {
	needSweeps(t)
	const l = 3.0
	edge := func(n int, xLow, yLow bool, id0 uint32, seed uint64) []Particle {
		rng := vec.NewRNG(seed)
		ps := make([]Particle, n)
		for i := range ps {
			x, y := 0.2*rng.Float64(), 0.2*rng.Float64()
			if !xLow {
				x = l - x
			}
			if !yLow {
				y = l - y
			}
			ps[i] = Particle{ID: id0 + uint32(i), Pos: vec.Vec2{X: x, Y: y}}
		}
		// The walls themselves, and the exact half-box displacement, sit
		// on the boundaries of the wrap tests.
		ps[0].Pos.X, ps[1].Pos.X = 0, 0
		if !xLow {
			ps[0].Pos.X, ps[1].Pos.X = l, l/2
		}
		return ps
	}
	for _, dim := range []int{1, 2} {
		box := NewBox(l, dim, Periodic)
		for _, law := range sweepLaws() {
			if law.Cutoff == 0 {
				continue
			}
			for _, c := range []struct {
				name       string
				xLow, yLow bool // where the sources sit; the targets sit low
			}{{"x", false, true}, {"y", true, false}, {"xy", false, false}} {
				a := edge(11, true, true, 0, 1)
				b := edge(9, c.xLow, c.yLow, 100, 2)
				if dim == 1 {
					for i := range a {
						a[i].Pos.Y = 0
					}
					for i := range b {
						b[i].Pos.Y = 0
					}
				}
				seedForces(a)
				seedForces(b)
				t.Run(fmt.Sprintf("%dd/rc%g_soft%g/%s", dim, law.Cutoff, law.Softening, c.name), func(t *testing.T) {
					checkSweeps(t, law, box, a, b)
					checkSweeps(t, law, box, b, a)
				})
			}
		}
	}
}

// TestSweepOutOfBoxFallsBack gives the periodic sweep positions the
// timestep loops never produce: images several boxes away, whose
// displacement needs more than the single shift the assembly applies.
// The call must take the Go loop and agree with it, wherever the stray
// particle sits; a Y coordinate outside a one-dimensional box is not
// wrapped by either.
func TestSweepOutOfBoxFallsBack(t *testing.T) {
	needSweeps(t)
	for _, dim := range []int{1, 2} {
		box := NewBox(3, dim, Periodic)
		law := Law{Kind: Repulsive, K: 1.3, Softening: 1e-3, Cutoff: 0.9}
		for _, stray := range []vec.Vec2{{X: 2.6 * 3}, {X: -2.2 * 3}, {X: 1, Y: 7.9}, {X: math.Nextafter(3, 4)}} {
			for _, where := range []string{"target", "source"} {
				targets := InitUniform(8, box, 5)
				sources := InitUniform(12, box, 6)
				for j := range sources {
					sources[j].ID += 100
				}
				if where == "target" {
					targets[6].Pos = stray
				} else {
					sources[7].Pos = stray
				}
				seedForces(targets)
				checkSweeps(t, law, box, targets, sources)
			}
		}
	}
}

// TestSweepRandom is the seeded property test: random shapes, boxes,
// laws, ID overlap and the odd coincident pair.
func TestSweepRandom(t *testing.T) {
	needSweeps(t)
	for seed := uint64(1); seed <= 300; seed++ {
		rng := vec.NewRNG(seed)
		box := sweepBoxes[rng.Intn(len(sweepBoxes))]
		box.L = 1 + 9*rng.Float64()
		law := Law{Kind: Repulsive, K: 0.1 + 3*rng.Float64()}
		if rng.Float64() < 0.5 {
			law.Softening = 1e-3 * rng.Float64()
		}
		if rng.Float64() < 0.7 {
			law.Cutoff = box.L * (0.05 + 0.6*rng.Float64())
		}
		targets := InitUniform(rng.Intn(40), box, seed*7+1)
		sources := InitUniform(rng.Intn(90), box, seed*7+2)
		shift := uint32(rng.Intn(len(targets) + 1))
		for j := range sources {
			sources[j].ID += shift // IDs below len(targets) overlap
			if len(targets) > 0 && rng.Float64() < 0.05 {
				sources[j].Pos = targets[j%len(targets)].Pos
			}
		}
		seedForces(targets)
		checkSweeps(t, law, box, targets, sources)
	}
}

// BenchmarkSweep times the two sweeps against their Go loops at the
// block shapes of the repository benchmark's workloads (uniform random
// positions, so the cutoff rows see few groups wholly out of reach).
func BenchmarkSweep(b *testing.B) {
	needSweeps(b)
	cases := []struct {
		name   string
		law    Law
		box    Box
		nt, ns int
	}{
		{"rep_open/2048x2048", DefaultLaw(), NewBox(10, 2, Reflective), 2048, 2048},
		{"rep_open/8x8", DefaultLaw(), NewBox(10, 2, Reflective), 8, 8},
		{"rep_cut_in/reflective2d/256x256", DefaultLaw().WithCutoff(0.9), NewBox(3, 2, Reflective), 256, 256},
		{"rep_cut_in/periodic2d/256x256", DefaultLaw().WithCutoff(0.9), NewBox(3, 2, Periodic), 256, 256},
		{"rep_cut_in/periodic1d/64x64", DefaultLaw().WithCutoff(0.9), NewBox(3, 1, Periodic), 64, 64},
	}
	for _, c := range cases {
		targets := InitUniform(c.nt, c.box, 1)
		sources := InitUniform(c.ns, c.box, 2)
		for j := range sources {
			sources[j].ID += uint32(c.nt)
		}
		k := c.law.Kernel()
		run := func(name string, fn func() int64) {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				var pairs int64
				for i := 0; i < b.N; i++ {
					pairs = fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			})
		}
		if c.law.Cutoff > 0 {
			run("go", func() int64 { return k.accumulateInRepCutTiled(targets, sources, c.box, vec.DefaultTile) })
			run("avx2", func() int64 { return k.sweepInRepCut(targets, sources, c.box) })
		} else {
			run("go", func() int64 { return k.accumulateRepOpen(targets, sources) })
			run("avx2", func() int64 { return k.sweepRepOpen(targets, sources) })
		}
	}
}
