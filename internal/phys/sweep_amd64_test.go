//go:build amd64 && !purego

package phys

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/vec"
)

// The tests here hold the AVX2 sweeps to what they stand in for — the
// open sweep to its Go loop (accumulateRepOpen), the cutoff sweep to the
// generic per-pair path (Law.AccumulateGeneric), the spec its Go loop
// is held to as well: every force bit and the pair count, on inputs
// built to reach each mask and each tail.

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
		t.Skip("no AVX2 on this host: AccumulateIn runs the Go loops")
	}
	if mulAdd(mulAddProbe[0], mulAddProbe[1], mulAddProbe[2]) != 0 {
		t.Skip("this build fuses x*y+z in the Go loops; the bitwise identity to the assembly is asserted for unfused builds (default GOAMD64=v1)")
	}
}

// needPipe skips when the pipelined sweeps cannot run here.
func needPipe(t testing.TB) {
	t.Helper()
	needSweeps(t)
	if !usePipe {
		t.Skip("no AVX-512F/VL with FMA and POPCNT on this host: the sweeps run their plain loops only")
	}
}

// openLoops names the loops of the open sweep this host can run: the
// plain one, and the pipelined one behind it where the CPU has it. The
// tests run each against the Go loop, so the plain loop stays covered
// on a host that selects the other.
func openLoops() map[string]bool {
	loops := map[string]bool{"plain": false}
	if usePipe {
		loops["pipelined"] = true
	}
	return loops
}

// cutLoops is openLoops for the cutoff sweep, whose pipelined loop sits
// behind a gate.
func cutLoops() map[string]bool { return openLoops() }

// checkSweeps runs law's repulsive sweep and its reference on copies of
// targets and compares them, once per loop of the sweep: the open law
// against its Go loop, a cutoff law against the generic path under box.
func checkSweeps(t *testing.T, law Law, box Box, targets, sources []Particle) {
	t.Helper()
	k := law.Kernel()
	want := append([]Particle(nil), targets...)
	if law.Cutoff > 0 {
		nWant := law.AccumulateGeneric(want, sources, box)
		for name, pipe := range cutLoops() {
			got := append([]Particle(nil), targets...)
			if nGot := k.sweepInRepCutVia(pipe, got, sources, box); nGot != nWant {
				t.Fatalf("%s loop counted %d pairs, the generic path %d", name, nGot, nWant)
			}
			sameForces(t, name, got, want)
		}
		return
	}
	nWant := k.accumulateRepOpen(want, sources)
	for name, pipe := range openLoops() {
		got := append([]Particle(nil), targets...)
		if nGot := k.sweepRepOpenVia(pipe, got, [][]Particle{sources}); nGot != nWant {
			t.Fatalf("%s loop counted %d pairs, Go loop %d", name, nGot, nWant)
		}
		sameForces(t, name, got, want)
	}
}

// sameForces is compareForces with the loop named and two NaNs equal:
// the strengths and coordinates some tests reach for make them, and
// their payloads are not pinned.
func sameForces(t *testing.T, loop string, got, want []Particle) {
	t.Helper()
	for i := range got {
		if g, w := got[i].Force, want[i].Force; !sameOrNaN(g.X, w.X) || !sameOrNaN(g.Y, w.Y) {
			t.Fatalf("%s loop, target %d: force (%x, %x), the reference (%x, %x)", loop, i,
				math.Float64bits(g.X), math.Float64bits(g.Y), math.Float64bits(w.X), math.Float64bits(w.Y))
		}
	}
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
// sources, half of which carry target IDs. The open law also gets the
// seams of its pipelined loop: the counts around its threshold, around
// whole blocks of four, and a second assembly call too short for it.
func TestSweepShapes(t *testing.T) {
	needSweeps(t)
	for _, box := range sweepBoxes {
		for _, law := range sweepLaws() {
			for nt := 0; nt <= 9; nt++ {
				counts := []int{0, 1, 7, sweepChunk + 3}
				if law.Cutoff == 0 {
					counts = append(counts, 15, 16, 17, 18, 19, 20, 21, 22, 23, 31, 33, 63, 65, sweepChunk+5, sweepChunk+pipeMin+1)
				}
				for _, ns := range counts {
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
			for _, n := range []int{13, 30} { // short of the pipelined loop, and in it
				targets := InitUniform(n, box, 9)
				seedForces(targets)
				sources := append([]Particle(nil), targets...)
				checkSweeps(t, law, box, targets, sources)
				if law.Cutoff > 0 {
					continue
				}
				k := law.Kernel()
				n := k.sweepRepOpenBlocks(append([]Particle(nil), targets...), [][]Particle{sources})
				if want := interactions(len(targets), len(sources), len(targets)); n != want {
					t.Fatalf("%s: diagonal block counted %d pairs, Interactions says %d", boxName(box), n, want)
				}
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

// TestSweepOpenBlocks runs the open sweep over block lists that mix runs
// short of the pipelined loop with runs in it, an empty block and the
// targets' own IDs, each loop against one Go loop per block.
func TestSweepOpenBlocks(t *testing.T) {
	needSweeps(t)
	box := NewBox(3, 2, Reflective)
	for _, soft := range []float64{0, 1e-3} {
		k := Law{Kind: Repulsive, K: 1.3, Softening: soft}.Kernel()
		for _, nt := range []int{4, 9, 40} {
			targets := InitUniform(nt, box, uint64(nt))
			seedForces(targets)
			strangers := func(n int, seed uint64) []Particle {
				return relabel(InitUniform(n, box, seed), uint32(nt)+uint32(1000*seed))
			}
			own := append([]Particle(nil), targets...)
			blocks := [][]Particle{strangers(15, 1), strangers(16, 2), nil, strangers(8, 3), own, strangers(23, 4), {}, strangers(3, 5), strangers(37, 6)}
			want := append([]Particle(nil), targets...)
			var nWant int64
			for _, b := range blocks {
				nWant += k.accumulateRepOpen(want, b)
			}
			for name, pipe := range openLoops() {
				got := append([]Particle(nil), targets...)
				if nGot := k.sweepRepOpenVia(pipe, got, blocks); nGot != nWant {
					t.Fatalf("%s loop counted %d pairs over the list, the Go loops %d", name, nGot, nWant)
				}
				compareForces(t, got, want)
			}
		}
	}
}

// TestSweepOpenTurnedAway feeds the open sweep what the pipelined loop's
// guard must hand to the divider, inside runs long enough to reach it:
// coincident pairs whose displacement is a signed zero (r2 == 0 without
// softening: the pair adds +0 whatever the sign), a pair so close that
// r2*sqrt(r2) underflows while r2 does not, pairs so far that r2 or the
// product overflows, and strengths at the ends of the admitted range
// and beyond them, where the whole call takes the plain loop.
func TestSweepOpenTurnedAway(t *testing.T) {
	needSweeps(t)
	negZero := math.Copysign(0, -1)
	box := NewBox(3, 2, Reflective)
	targets := InitUniform(8, box, 1)
	targets[1].Pos = vec.Vec2{X: negZero, Y: 0}
	targets[2].Pos = vec.Vec2{X: 0, Y: negZero}
	for i := range targets {
		targets[i].Force = vec.Vec2{X: negZero, Y: negZero}
	}
	sources := relabel(InitUniform(41, box, 2), 100)
	sources[5].Pos = vec.Vec2{X: 0, Y: 0}                     // on targets 1 and 2, up to the sign of zero
	sources[6].Pos = vec.Vec2{X: negZero, Y: negZero}         // likewise
	sources[11].Pos = targets[3].Pos                          // exactly coincident
	sources[12].Pos = targets[4].Pos.Add(vec.Vec2{X: 1e-120}) // r2 = 1e-240, r2*sqrt(r2) = 0
	sources[20].Pos = vec.Vec2{X: 1e160, Y: 1}                // r2 = Inf
	sources[21].Pos = vec.Vec2{X: 1e110}                      // r2 = 1e220, r2*sqrt(r2) = Inf
	sources[40].Pos = targets[5].Pos                          // in the tail behind the last block
	// And a run of nothing but such coincidences, every displacement of
	// targets 1 and 2 a -0: a -0 product added in place of +0 would still
	// be there at the end.
	origin := relabel(make([]Particle, 20), 200) // whole blocks: no source takes the plain loop
	onZero := append([]Particle(nil), targets...)
	for i := range onZero {
		onZero[i].Pos = targets[i%3].Pos.Scale(0) // keeps the sign of each zero
	}
	checkSweeps(t, Law{Kind: Repulsive, K: 1.3}, box, onZero, origin)

	strengths := []float64{1.3, -1.3, pipeKMin, pipeKMax, -pipeKMax,
		math.Nextafter(pipeKMin, 0), math.Nextafter(pipeKMax, math.Inf(1)),
		0, negZero, 5e-324, math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, kk := range strengths {
		for _, soft := range []float64{0, 1e-3} {
			k := Law{Kind: Repulsive, K: kk, Softening: soft}.Kernel()
			want := append([]Particle(nil), targets...)
			nWant := k.accumulateRepOpen(want, sources)
			for name, pipe := range openLoops() {
				got := append([]Particle(nil), targets...)
				if nGot := k.sweepRepOpenVia(pipe, got, [][]Particle{sources}); nGot != nWant {
					t.Fatalf("K=%g soft=%g: %s loop counted %d pairs, Go loop %d", kk, soft, name, nGot, nWant)
				}
				sameForces(t, fmt.Sprintf("K=%g soft=%g: %s", kk, soft, name), got, want)
			}
		}
	}
}

// onGrowingStacks runs sweep on copies of targets from goroutines at many
// stack depths, so that some calls land on a stack growth, and holds
// each result to want. It is for the pipelined loops: the sweeps with a
// stack frame of their own, so the ones whose prologue can move the
// stack their lane record — and the cutoff sweep's staged sources, some
// 6 KB of the wrapper's frame — live on.
func onGrowingStacks(t *testing.T, targets, want []Particle, sweep func(got []Particle)) {
	t.Helper()
	var descend func(depth int, got []Particle) byte
	descend = func(depth int, got []Particle) byte {
		var pad [128]byte // a frame's worth of stack per level
		if depth > 0 {
			pad[depth%len(pad)] = descend(depth-1, got)
		} else {
			sweep(got)
		}
		return pad[depth%len(pad)]
	}
	for depth := 0; depth < 120; depth++ {
		got := append([]Particle(nil), targets...)
		done := make(chan struct{})
		go func() {
			defer close(done)
			descend(depth, got)
		}()
		<-done
		compareForces(t, got, want)
	}
}

func TestSweepOpenOnGrowingStack(t *testing.T) {
	needPipe(t)
	box := NewBox(3, 2, Reflective)
	k := Law{Kind: Repulsive, K: 1.3, Softening: 1e-3}.Kernel()
	targets := InitUniform(8, box, 1)
	seedForces(targets)
	sources := relabel(InitUniform(40, box, 2), 100)
	want := append([]Particle(nil), targets...)
	k.accumulateRepOpen(want, sources)
	onGrowingStacks(t, targets, want, func(got []Particle) {
		k.sweepRepOpenVia(true, got, [][]Particle{sources})
	})
}

func TestSweepCutOnGrowingStack(t *testing.T) {
	needPipe(t)
	box := NewBox(10, 2, Periodic)
	law := Law{Kind: Repulsive, K: 1.3, Softening: 1e-3, Cutoff: 0.5}
	k := law.Kernel()
	targets := cluster(11, 1, 1, 0, 1)
	seedForces(targets)
	sources := nearAndFar(40, 300, 2)
	want := append([]Particle(nil), targets...)
	law.AccumulateGeneric(want, sources, box)
	onGrowingStacks(t, targets, want, func(got []Particle) {
		k.sweepInRepCutVia(true, got, sources, box)
	})
}

// selfBlock is n particles of a 3-wide box with what a reaction must get
// right planted along it: particles at x = -0 and x = +0, a pair of
// them coincident up to the sign of zero, particles coincident with an
// earlier one, IDs an earlier particle carries, and — past the first
// blocks — one particle so close to particle 0 that r2*sqrt(r2)
// underflows and one so far that r2 overflows. negZero starts every
// accumulator at -0 instead of at seedForces' values.
func selfBlock(n int, seed uint64, negZero bool) []Particle {
	nz := math.Copysign(0, -1)
	ps := InitUniform(n, NewBox(3, 2, Reflective), seed)
	for i := range ps {
		switch {
		case i%16 == 14:
			ps[i].Pos = vec.Vec2{X: nz, Y: 0}
		case i%16 == 15:
			ps[i].Pos = vec.Vec2{X: 0, Y: nz}
		case i%8 == 6:
			ps[i].Pos.X = nz
		case i%8 == 7:
			ps[i].Pos.X = 0
		case i%11 == 5:
			ps[i].Pos = ps[i-3].Pos
		case i%13 == 9:
			ps[i].ID = ps[i-4].ID
		}
	}
	if n > 24 {
		ps[n/3].Pos = ps[0].Pos.Add(vec.Vec2{X: 1e-120})
		ps[n/2].Pos = vec.Vec2{X: 1e160, Y: 1}
	}
	seedForces(ps)
	if negZero {
		for i := range ps {
			ps[i].Force = vec.Vec2{X: nz, Y: nz}
		}
	}
	return ps
}

// selfLoops names the loops that can sweep a block against itself here
// under box: the symmetric sweep where the pipelined loop runs, and the
// loops of k's sweep over the block as sources. Under a cutoff the
// symmetric sweep runs only on the blocks selfDense admits; the tests
// that mean it to say so.
func selfLoops(k Kernel, box Box) map[string]func([]Particle) int64 {
	loops := map[string]func([]Particle) int64{}
	if k.hasCut {
		for name, pipe := range cutLoops() {
			loops[name] = func(ps []Particle) int64 { return k.sweepInRepCutVia(pipe, ps, ps, box) }
		}
		if usePipe {
			loops["symmetric"] = func(ps []Particle) int64 { return k.sweepRepCutSelf(ps, box) }
		}
		return loops
	}
	for name, pipe := range openLoops() {
		loops[name] = func(ps []Particle) int64 { return k.sweepRepOpenVia(pipe, ps, [][]Particle{ps}) }
	}
	if usePipe {
		loops["symmetric"] = k.sweepRepOpenSelf
	}
	return loops
}

// checkSelf holds every loop of selfLoops, and AccumulateSelf, to the
// generic path over ps and a copy of it under box: every force bit and
// the count.
func checkSelf(t *testing.T, law Law, box Box, ps []Particle) {
	t.Helper()
	k := law.Kernel()
	want := append([]Particle(nil), ps...)
	nWant := law.AccumulateGeneric(want, append([]Particle(nil), ps...), box)
	loops := map[string]func([]Particle) int64{}
	if law.Kind == Repulsive {
		loops = selfLoops(k, box)
	}
	loops["AccumulateSelf"] = func(ps []Particle) int64 { return k.AccumulateSelf(ps, box) }
	for name, sweep := range loops {
		got := append([]Particle(nil), ps...)
		if nGot := sweep(got); nGot != nWant {
			t.Fatalf("%s: counted %d pairs, the generic path %d", name, nGot, nWant)
		}
		sameForces(t, name, got, want)
	}
}

// TestSweepSelfShapes runs the symmetric sweep over every group
// remainder, whole groups with no later block, one and several, a block
// either side of the chunk an assembly call takes, and the seams of the
// loops it is held to; with and without softening, from -0 and from
// nonzero accumulators.
func TestSweepSelfShapes(t *testing.T) {
	needSweeps(t)
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 23, 24, 25, 31, 33, 63, 64, 65, 255, 257}
	for _, n := range sizes {
		for _, soft := range []float64{0, 1e-3} {
			for _, negZero := range []bool{false, true} {
				t.Run(fmt.Sprintf("n%d/soft%g/negzero%v", n, soft, negZero), func(t *testing.T) {
					checkSelf(t, Law{Kind: Repulsive, K: 1.3, Softening: soft}, Box{}, selfBlock(n, uint64(n)+1, negZero))
				})
			}
		}
	}
	for _, n := range []int{sweepChunk + 3, sweepChunk + 4, sweepChunk + 5, sweepChunk + 9} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			checkSelf(t, Law{Kind: Repulsive, K: 1.3}, Box{}, selfBlock(n, 7, false))
		})
	}
}

// TestSweepSelfStrengths takes the symmetric sweep to the ends of the
// strengths the pipelined loop admits and past them, where it runs the
// open sweep instead, and through the other laws, which never take it.
func TestSweepSelfStrengths(t *testing.T) {
	needSweeps(t)
	negZero := math.Copysign(0, -1)
	strengths := []float64{1.3, -1.3, pipeKMin, -pipeKMin, pipeKMax, -pipeKMax,
		math.Nextafter(pipeKMin, 0), math.Nextafter(pipeKMax, math.Inf(1)),
		0, negZero, 5e-324, math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, kk := range strengths {
		for _, soft := range []float64{0, 1e-3} {
			checkSelf(t, Law{Kind: Repulsive, K: kk, Softening: soft}, Box{}, selfBlock(45, 3, kk < 0))
		}
	}
	for _, law := range []Law{DefaultLaw().WithCutoff(0.9), LJLaw(0.7, 0.4), LJLaw(0.7, 0.4).WithCutoff(0.9)} {
		checkSelf(t, law, Box{}, selfBlock(45, 3, false))
	}
}

// TestSweepSelfDuplicateIDs gives the block runs of one ID — whole
// groups of it, and one spanning a group boundary — so that the
// reactions meet equal-ID lanes in every position, alone and four at a
// time.
func TestSweepSelfDuplicateIDs(t *testing.T) {
	needSweeps(t)
	for _, soft := range []float64{0, 1e-3} {
		ps := selfBlock(70, 5, false)
		for i := range ps {
			switch {
			case i >= 8 && i < 16, i >= 30 && i < 35:
				ps[i].ID = 1000
			case i%5 == 0:
				ps[i].ID = ps[i/5].ID
			}
		}
		checkSelf(t, Law{Kind: Repulsive, K: 1.3, Softening: soft}, Box{}, ps)
	}
}

// TestSweepSelfSignedZeros puts every particle on an axis, at +0, but
// one at -0, and starts every accumulator at -0. Along that axis each
// force is then a signed zero, and an accumulator ends at -0 only if
// every add it received was a -0: with K > 0 the particle at -0 is the
// one, with K < 0 all the others. A reaction taken as -(p - s) instead
// of s - p, a coincident pair's reaction other than +0 (the particle
// sharing the odd one's other coordinate, without softening), or an
// equal-ID lane that adds anything (the particle sharing its ID) each
// show as a flipped zero. The odd particle takes every position in the
// block: a group's own, a pipelined block's lanes and sources, and the
// tail.
func TestSweepSelfSignedZeros(t *testing.T) {
	needSweeps(t)
	nz := math.Copysign(0, -1)
	for _, n := range []int{7, 22, 45} {
		for odd := 0; odd < n; odd++ {
			for _, axis := range []int{0, 1} {
				for _, twin := range []string{"", "coincident", "same ID"} {
					ps := InitUniform(n, NewBox(3, 2, Reflective), uint64(n))
					for i := range ps {
						on := &ps[i].Pos.X
						if axis == 1 {
							on = &ps[i].Pos.Y
						}
						*on = 0
						if i == odd {
							*on = nz
						}
						ps[i].Force = vec.Vec2{X: nz, Y: nz}
					}
					other := (odd + n/2) % n
					switch twin {
					case "coincident":
						ps[other].Pos = ps[odd].Pos
						if axis == 0 {
							ps[other].Pos.X = 0
						} else {
							ps[other].Pos.Y = 0
						}
					case "same ID":
						ps[other].ID = ps[odd].ID
					}
					for _, kk := range []float64{1.3, -1.3} {
						for _, soft := range []float64{0, 1e-3} {
							t.Run(fmt.Sprintf("n%d/odd%d/axis%d/%s/K%g/soft%g", n, odd, axis, twin, kk, soft), func(t *testing.T) {
								checkSelf(t, Law{Kind: Repulsive, K: kk, Softening: soft}, Box{}, ps)
							})
						}
					}
				}
			}
		}
	}
}

// TestSweepSelfRoutine holds sweepRepOpenSelfAVX512 alone to the Go loop
// run both ways: a group of four targets folds n sources, and each
// source folds the four targets, in that order. The first group meets
// each of the planted cases in every lane.
func TestSweepSelfRoutine(t *testing.T) {
	needPipe(t)
	for _, n := range []int{4, 8, 12, 16, 20, 64, 132, sweepChunk} {
		for _, soft := range []float64{0, 1e-3} {
			k := Law{Kind: Repulsive, K: 1.3, Softening: soft}.Kernel()
			ps := selfBlock(4+n, uint64(n), n%8 == 0)
			want := append([]Particle(nil), ps...)
			nWant := k.accumulateRepOpen(want[:4], want[4:])
			k.accumulateRepOpen(want[4:], want[:4])
			got := append([]Particle(nil), ps...)
			var ln lanes4
			ln.load(got[:4])
			sweepRepOpenSelfAVX512(&ln, &got[4], n, k.k, k.soft2)
			ln.store(got[:4])
			if nGot := 4*int64(n) - int64(ln.tally()); nGot != nWant {
				t.Fatalf("n=%d soft=%g: the lanes counted %d pairs, the Go loop %d", n, soft, nGot, nWant)
			}
			sameForces(t, fmt.Sprintf("n=%d soft=%g", n, soft), got, want)
		}
	}
}

func TestSweepSelfOnGrowingStack(t *testing.T) {
	needPipe(t)
	law := Law{Kind: Repulsive, K: 1.3, Softening: 1e-3}
	ps := selfBlock(41, 2, false)
	want := append([]Particle(nil), ps...)
	law.AccumulateGeneric(want, append([]Particle(nil), ps...), Box{})
	k := law.Kernel()
	onGrowingStacks(t, ps, want, func(got []Particle) { k.sweepRepOpenSelf(got) })
}

// cutRC is the cutoff of the cutoff law's symmetric sweep tests: rc*rc
// is exact, and so is the square of the offset cutSelfBlock plants one
// ulp beyond it.
const cutRC = 0.75

// cutSelfBlock is selfBlock for the cutoff law's symmetric sweep: n
// particles of a dim-dimensional block spanning [0, cutRC] along each
// axis of it — the widest selfDense admits — with, planted along it,
// particles at x = -0 and x = +0 (coincident up to the sign of zero in
// one dimension), particles coincident with an earlier one, IDs an
// earlier particle carries, pairs exactly at the cutoff (d2 == rc2,
// which interact) and, in two dimensions, pairs one ulp of d2 beyond it
// (which do not), and one pair so close that r2*sqrt(r2) underflows.
func cutSelfBlock(n, dim int, seed uint64, negZero bool) []Particle {
	nz := math.Copysign(0, -1)
	rng := vec.NewRNG(seed)
	ps := make([]Particle, n)
	for i := range ps {
		ps[i] = Particle{ID: uint32(i), Pos: vec.Vec2{X: cutRC * rng.Float64()}}
		if dim == 2 {
			ps[i].Pos.Y = cutRC * rng.Float64()
		}
	}
	for i := range ps {
		switch {
		case i%8 == 6:
			ps[i].Pos.X = nz
		case i%8 == 7:
			ps[i].Pos = vec.Vec2{X: 0, Y: ps[i-1].Pos.Y}
		case i%9 == 2: // at the cutoff from the one before
			ps[i-1].Pos.X = 0
			ps[i].Pos = vec.Vec2{X: cutRC, Y: ps[i-1].Pos.Y}
		case i%9 == 4 && dim == 2: // one ulp of d2 beyond it
			ps[i-1].Pos = vec.Vec2{}
			ps[i].Pos = vec.Vec2{X: cutRC, Y: 0x3p-28}
		case i%11 == 5:
			ps[i].Pos = ps[i-3].Pos
		case i%13 == 9:
			ps[i].ID = ps[i-4].ID
		}
	}
	if n > 24 {
		ps[n/3].Pos = ps[0].Pos.Add(vec.Vec2{X: 1e-120})
		ps[n/3+1].Pos = vec.Vec2{X: cutRC, Y: cutRC * float64(dim-1)}
	}
	seedForces(ps)
	if negZero {
		for i := range ps {
			ps[i].Force = vec.Vec2{X: nz, Y: nz}
		}
	}
	return ps
}

// checkCutSelf is checkSelf for a block the symmetric cutoff sweep must
// take: it fails if selfDense turns the block away.
func checkCutSelf(t *testing.T, law Law, box Box, ps []Particle) {
	t.Helper()
	if k := law.Kernel(); usePipe && !k.selfDense(ps, box) {
		t.Fatalf("selfDense turns the block away under %s: it would not test the symmetric sweep", boxName(box))
	}
	checkSelf(t, law, box, ps)
}

// cutSelfBoxes are the boxes the cutoff law's symmetric sweep runs in:
// a periodic one measures plainly where the block needs no wrap.
func cutSelfBoxes(dim int) []Box {
	return []Box{NewBox(3, dim, Reflective), NewBox(3, dim, Periodic)}
}

// TestSweepCutSelfShapes runs the cutoff law's symmetric sweep over every
// group remainder, whole groups with no later block, one and several, a
// block either side of the chunk an assembly call takes, in one and two
// dimensions and both kinds of box; with and without softening, from -0
// and from nonzero accumulators.
func TestSweepCutSelfShapes(t *testing.T) {
	needSweeps(t)
	if d := cutRC * cutRC; d != 0.5625 || cutRC*cutRC+0x3p-28*0x3p-28 != math.Nextafter(d, 1) {
		t.Fatal("geometry: the planted pairs are not at the cutoff and one ulp beyond it")
	}
	sizes := []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 19, 20, 21, 31, 33, 63, 64, 65, 127, 129, 255, 257}
	for _, dim := range []int{1, 2} {
		for _, box := range cutSelfBoxes(dim) {
			for _, n := range sizes {
				for _, soft := range []float64{0, 1e-3} {
					for _, negZero := range []bool{false, true} {
						t.Run(fmt.Sprintf("%s/n%d/soft%g/negzero%v", boxName(box), n, soft, negZero), func(t *testing.T) {
							law := Law{Kind: Repulsive, K: 1.3, Softening: soft, Cutoff: cutRC}
							checkCutSelf(t, law, box, cutSelfBlock(n, dim, uint64(n)+1, negZero))
						})
					}
				}
			}
		}
	}
	for _, n := range []int{sweepChunk - 1, sweepChunk + 3, sweepChunk + 5} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			checkCutSelf(t, Law{Kind: Repulsive, K: 1.3, Cutoff: cutRC}, NewBox(3, 2, Reflective), cutSelfBlock(n, 2, 7, false))
		})
	}
}

// TestSweepCutSelfStrengths takes the cutoff law's symmetric sweep to the
// ends of the strengths the pipelined loop admits, and past them, where
// selfDense turns the block away and the gated sweep runs it.
func TestSweepCutSelfStrengths(t *testing.T) {
	needSweeps(t)
	box := NewBox(3, 2, Reflective)
	strengths := []float64{1.3, -1.3, pipeKMin, -pipeKMin, pipeKMax, -pipeKMax,
		math.Nextafter(pipeKMin, 0), math.Nextafter(pipeKMax, math.Inf(1)),
		0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, kk := range strengths {
		for _, soft := range []float64{0, 1e-3} {
			law := Law{Kind: Repulsive, K: kk, Softening: soft, Cutoff: cutRC}
			ps := cutSelfBlock(45, 2, 3, kk < 0)
			if k := law.Kernel(); usePipe && k.selfDense(ps, box) != k.pipeAdmits() {
				t.Fatalf("K=%g: selfDense %v, but the pipelined loop admits the strength: %v", kk, k.selfDense(ps, box), k.pipeAdmits())
			}
			checkSelf(t, law, box, ps)
		}
	}
}

// TestSweepCutSelfDuplicateIDs gives the block runs of one ID — whole
// groups of it, and one spanning a group boundary — so that the masked
// reactions meet equal-ID lanes in every position.
func TestSweepCutSelfDuplicateIDs(t *testing.T) {
	needSweeps(t)
	for _, dim := range []int{1, 2} {
		for _, soft := range []float64{0, 1e-3} {
			ps := cutSelfBlock(70, dim, 5, false)
			for i := range ps {
				switch {
				case i >= 8 && i < 16, i >= 30 && i < 35:
					ps[i].ID = 1000
				case i%5 == 0:
					ps[i].ID = ps[i/5].ID
				}
			}
			checkCutSelf(t, Law{Kind: Repulsive, K: 1.3, Softening: soft, Cutoff: cutRC}, NewBox(3, dim, Periodic), ps)
		}
	}
}

// TestSweepCutSelfKeepsNegativeZero builds a block whose particles sit in
// two opposite corners of a cutRC square, each corner's under one ID:
// every pair is either an identity or beyond the cutoff, so no
// accumulator may be added to and each -0 must come back as -0. A
// masked reaction that adds +0, or any reaction at all, flips it. Then
// one stranger in reach of one corner only: its reactions and its own
// sum must still leave the other corner alone.
func TestSweepCutSelfKeepsNegativeZero(t *testing.T) {
	needSweeps(t)
	nz := math.Copysign(0, -1)
	for _, n := range []int{8, 20, 41} {
		ps := make([]Particle, n)
		for i := range ps {
			ps[i] = Particle{ID: 1, Force: vec.Vec2{X: nz, Y: nz}}
			if i%3 == 1 {
				ps[i].ID, ps[i].Pos = 2, vec.Vec2{X: cutRC, Y: cutRC}
			}
		}
		law := Law{Kind: Repulsive, K: 1.3, Cutoff: cutRC}
		checkCutSelf(t, law, NewBox(3, 2, Reflective), ps)
		got := append([]Particle(nil), ps...)
		k := law.Kernel()
		k.AccumulateSelf(got, NewBox(3, 2, Reflective))
		for i := range got {
			if !bitsEqual(got[i].Force.X, nz) || !bitsEqual(got[i].Force.Y, nz) {
				t.Fatalf("n=%d particle %d: untouched -0 accumulator came back as (%x, %x)", n, i,
					math.Float64bits(got[i].Force.X), math.Float64bits(got[i].Force.Y))
			}
		}
		ps[n/2] = Particle{ID: 3, Pos: vec.Vec2{X: 0.1, Y: 0.2}, Force: vec.Vec2{X: nz, Y: nz}}
		checkCutSelf(t, law, NewBox(3, 2, Reflective), ps)
	}
}

// TestSweepCutSelfDensityRule pins selfDense's edges: a block spanning
// exactly the cutoff along an axis takes the symmetric sweep, one an ulp
// wider does not; a periodic block across the seam, or with a particle
// outside the box, does not either, however narrow, nor one within a
// cutoff past half the box but wider than that half, whose pairs wrap.
// Every case agrees with the generic path.
func TestSweepCutSelfDensityRule(t *testing.T) {
	needSweeps(t)
	const l = 3.0
	law := Law{Kind: Repulsive, K: 1.3, Softening: 1e-3, Cutoff: cutRC}
	wide := Law{Kind: Repulsive, K: 1.3, Softening: 1e-3, Cutoff: 2}
	outside := func(ps []Particle) { // [-0.5, 0.25] along x
		for i := range ps {
			ps[i].Pos.X -= 1.5
		}
	}
	for _, c := range []struct {
		name  string
		box   Box
		place func(ps []Particle)
		dense bool
	}{
		{"x at rc", NewBox(l, 2, Reflective), func(ps []Particle) { ps[3].Pos.X = 1 + cutRC }, true},
		{"y at rc", NewBox(l, 2, Periodic), func(ps []Particle) { ps[3].Pos.Y = 1 + cutRC }, true},
		{"x beyond rc", NewBox(l, 2, Reflective), func(ps []Particle) { ps[3].Pos.X = math.Nextafter(1+cutRC, 2) }, false},
		{"y beyond rc", NewBox(l, 2, Periodic), func(ps []Particle) { ps[3].Pos.Y = math.Nextafter(1+cutRC, 2) }, false},
		{"1d x at rc", NewBox(l, 1, Periodic), func(ps []Particle) { ps[3].Pos.X = 1 + cutRC }, true},
		{"1d x beyond rc", NewBox(l, 1, Periodic), func(ps []Particle) { ps[3].Pos.X = math.Nextafter(1+cutRC, 2) }, false},
		{"across the seam", NewBox(l, 2, Periodic), func(ps []Particle) {
			for i := range ps {
				ps[i].Pos.X = math.Mod(ps[i].Pos.X+1.6, l) // [2.6, 3) and [0, 0.35]
			}
		}, false},
		{"wider than half the box", NewBox(l, 1, Periodic), func(ps []Particle) { ps[3].Pos.X = math.Nextafter(1+l/2, l) }, false},
		{"half the box", NewBox(l, 1, Periodic), func(ps []Particle) { ps[3].Pos.X = 1 + l/4; ps[4].Pos.X = 1 + l/2 }, true},
		{"outside the box", NewBox(l, 2, Periodic), outside, false},
		{"outside a reflective box", NewBox(l, 2, Reflective), outside, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ps := relabel(InitUniform(37, NewBox(cutRC, c.box.Dim, Reflective), 4), 0)
			for i := range ps {
				ps[i].Pos.X += 1
				if c.box.Dim == 2 {
					ps[i].Pos.Y += 1
				}
			}
			ps[0].Pos.X, ps[1].Pos.Y = 1, float64(c.box.Dim-1) // the block's low edges
			c.place(ps)
			seedForces(ps)
			law := law
			if strings.Contains(c.name, "half the box") {
				law = wide // a cutoff past half the box, where the block can wrap within it
			}
			if k := law.Kernel(); usePipe && k.selfDense(ps, c.box) != c.dense {
				t.Fatalf("selfDense says %v, want %v", !c.dense, c.dense)
			}
			checkSelf(t, law, c.box, ps)
		})
	}
}

// TestSweepCutSelfRoutine holds sweepRepCutSelfAVX512 alone to the
// generic path run both ways: a group of four targets folds n sources,
// and each source folds the four targets, in that order. The first
// group meets each of the planted cases in every lane.
func TestSweepCutSelfRoutine(t *testing.T) {
	needPipe(t)
	for _, dim := range []int{1, 2} {
		for _, n := range []int{4, 8, 12, 16, 20, 64, 132, sweepChunk} {
			for _, soft := range []float64{0, 1e-3} {
				law := Law{Kind: Repulsive, K: 1.3, Softening: soft, Cutoff: cutRC}
				k := law.Kernel()
				ps := cutSelfBlock(4+n, dim, uint64(n), n%8 == 0)
				want := append([]Particle(nil), ps...)
				nWant := law.AccumulateGeneric(want[:4], want[4:], Box{})
				law.AccumulateGeneric(want[4:], want[:4], Box{})
				got := append([]Particle(nil), ps...)
				c := sweepConsts{kk: spread(k.k), soft2: spread(k.soft2), rc2: spread(k.rc2)}
				var ln lanes4
				ln.load(got[:4])
				sweepRepCutSelfAVX512(&ln, &got[4], n, &c)
				ln.store(got[:4])
				if nGot := 4*int64(n) - int64(ln.tally()); nGot != nWant {
					t.Fatalf("%dd n=%d soft=%g: the lanes counted %d pairs, the generic path %d", dim, n, soft, nGot, nWant)
				}
				sameForces(t, fmt.Sprintf("%dd n=%d soft=%g", dim, n, soft), got, want)
			}
		}
	}
}

func TestSweepCutSelfOnGrowingStack(t *testing.T) {
	needPipe(t)
	box := NewBox(3, 2, Periodic)
	law := Law{Kind: Repulsive, K: 1.3, Softening: 1e-3, Cutoff: cutRC}
	ps := cutSelfBlock(41, 2, 2, false)
	want := append([]Particle(nil), ps...)
	law.AccumulateGeneric(want, append([]Particle(nil), ps...), box)
	k := law.Kernel()
	onGrowingStacks(t, ps, want, func(got []Particle) { k.sweepRepCutSelf(got, box) })
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
// swap — and against one on its own side, which the seam test sends
// through the loop without a wrap. The blocks are long enough for the
// pipelined loop, and every pair is in reach.
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
			}{{"x", false, true}, {"y", true, false}, {"xy", false, false}, {"none", true, true}} {
				a := edge(39, true, true, 0, 1)
				b := edge(30, c.xLow, c.yLow, 100, 2)
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

// TestSweepAtHalfBox sets two blocks so that their extents differ by
// exactly half the box — the last call the seam test lets go without a
// wrap, its extreme pair's displacement being the one value minImage1
// leaves alone — and then an ulp further, where that pair is shifted.
func TestSweepAtHalfBox(t *testing.T) {
	needSweeps(t)
	const l = 3.0
	span := func(n int, from, to float64, id0 uint32) []Particle {
		ps := make([]Particle, n)
		for i := range ps {
			f := float64(i) / float64(n-1)
			ps[i] = Particle{ID: id0 + uint32(i), Pos: vec.Vec2{X: from + f*(to-from), Y: 0.5 * f}}
		}
		return ps
	}
	for _, dim := range []int{1, 2} {
		box := NewBox(l, dim, Periodic)
		for _, law := range sweepLaws() {
			if law.Cutoff == 0 {
				continue
			}
			for _, beyond := range []bool{false, true} {
				a, b := span(21, 0.5, 1.5, 0), span(18, 0, 1, 100)
				if a[20].Pos.X-b[0].Pos.X != l/2 {
					t.Fatal("geometry: the extents are not half a box apart")
				}
				if beyond {
					a[20].Pos.X = math.Nextafter(1.5, 2)
				}
				seedForces(a)
				seedForces(b)
				checkSweeps(t, law, box, a, b) // max target - min source at l/2
				checkSweeps(t, law, box, b, a) // min target - max source at -l/2
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
		box := sweepBoxes[intn(rng, len(sweepBoxes))]
		box.L = 1 + 9*rng.Float64()
		law := Law{Kind: Repulsive, K: 0.1 + 3*rng.Float64()}
		if rng.Float64() < 0.5 {
			law.Softening = 1e-3 * rng.Float64()
		}
		if rng.Float64() < 0.7 {
			law.Cutoff = box.L * (0.05 + 0.6*rng.Float64())
		}
		targets := InitUniform(intn(rng, 40), box, seed*7+1)
		sources := InitUniform(intn(rng, 90), box, seed*7+2)
		shift := uint32(intn(rng, len(targets)+1))
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

// cluster returns n particles within 0.05 of (x, y), IDs from id0.
func cluster(n int, x, y float64, id0 uint32, seed uint64) []Particle {
	rng := vec.NewRNG(seed)
	ps := make([]Particle, n)
	for i := range ps {
		ps[i] = Particle{ID: id0 + uint32(i), Pos: vec.Vec2{X: x + 0.1*rng.Float64() - 0.05, Y: y + 0.1*rng.Float64() - 0.05}}
	}
	return ps
}

// nearAndFar returns nNear sources every target of a cluster at (1, 1)
// reaches under a cutoff of 0.5 and nFar it does not, shuffled so that the
// survivors of the gate are scattered over its vectors.
func nearAndFar(nNear, nFar int, seed uint64) []Particle {
	ps := append(cluster(nNear, 1.2, 1.1, 1000, seed), cluster(nFar, 6, 5, 5000, seed+1)...)
	rng := vec.NewRNG(seed + 2)
	for i := len(ps) - 1; i > 0; i-- {
		j := intn(rng, i+1)
		ps[i], ps[j] = ps[j], ps[i]
	}
	return ps
}

// TestSweepCutSurvivors walks the pipelined cutoff loop's seams: lists of
// survivors around its threshold and around whole blocks of four, left by
// gates whose last vector is full, one short and one over, and by one,
// two and three staging chunks — for whole groups and every remainder.
func TestSweepCutSurvivors(t *testing.T) {
	needSweeps(t)
	for _, boundary := range []Boundary{Reflective, Periodic} {
		box := NewBox(10, 2, boundary)
		for _, soft := range []float64{0, 1e-3} {
			law := Law{Kind: Repulsive, K: 1.3, Softening: soft, Cutoff: 0.5}
			for _, nt := range []int{4, 9, 10, 11} {
				targets := cluster(nt, 1, 1, 0, 7)
				seedForces(targets)
				for _, nNear := range []int{0, 1, 3, 15, 16, 17, 18, 19, 20, 21, 31, 33} {
					for _, ns := range []int{39, 40, 41, cutStageCap - 1, cutStageCap, cutStageCap + 1, 2*cutStageCap - 1, 2*cutStageCap + 9} {
						if nt != 11 && ns > 41 && nNear%4 != 1 {
							continue // the chunk seams once per kind of list
						}
						t.Run(fmt.Sprintf("%v/soft%g/%dx%d/%dnear", boundary, soft, nt, ns, nNear), func(t *testing.T) {
							checkSweeps(t, law, box, targets, nearAndFar(nNear, ns-nNear, uint64(ns)))
						})
					}
				}
			}
		}
	}
}

// TestSweepCutSharedIDs is the case the gate's ID clause exists for: a
// source no lane reaches that carries a lane's ID must still reach the
// tally, and the lane, never added to, must keep a -0 accumulator. IDs
// shared with another group only, IDs inside a group's range that match
// none of it and targets in no ID order ride along, with the pipelined
// loop idle (nothing in reach) and busy.
func TestSweepCutSharedIDs(t *testing.T) {
	needSweeps(t)
	negZero := math.Copysign(0, -1)
	box := NewBox(10, 2, Reflective)
	law := Law{Kind: Repulsive, K: 1.3, Cutoff: 0.5}
	targets := cluster(11, 1, 1, 0, 3)
	for i, id := range []uint32{53, 10, 99, 2, 50, 51, 7, 52, 98, 11, 12} {
		targets[i].ID = id
		targets[i].Force = vec.Vec2{X: negZero, Y: negZero}
	}
	for _, nNear := range []int{0, 24} {
		sources := nearAndFar(nNear, 60, 5)
		var far []int
		for j := range sources {
			if sources[j].ID >= 5000 {
				far = append(far, j)
			}
		}
		// Every target's ID on a source out of reach, the first group's in
		// one vector of the gate; 30 and 60 lie between IDs and match none.
		for i, id := range []uint32{53, 10, 99, 2, 30, 60, 50, 51, 7, 52, 98, 11, 12, 10} {
			sources[far[3*i]].ID = id
		}
		checkSweeps(t, law, box, targets, sources)
		if nNear > 0 {
			continue
		}
		for name, pipe := range cutLoops() {
			got := append([]Particle(nil), targets...)
			k := law.Kernel()
			if n, want := k.sweepInRepCutVia(pipe, got, sources, box), int64(len(targets)*len(sources)-12); n != want {
				t.Fatalf("%s loop counted %d pairs, want %d: twelve sources meet their own ID", name, n, want)
			}
			for i := range got {
				if !bitsEqual(got[i].Force.X, negZero) || !bitsEqual(got[i].Force.Y, negZero) {
					t.Fatalf("%s loop, target %d: untouched -0 accumulator came back as (%x, %x)", name, i,
						math.Float64bits(got[i].Force.X), math.Float64bits(got[i].Force.Y))
				}
			}
		}
	}
}

// TestSweepCutTurnedAway puts inside a pipelined run of the cutoff sweep
// what its stages must treat apart: a pair exactly on the cutoff sphere
// and one an ulp outside it, coincident pairs whose r2 is 0 without
// softening (the guard hands their block to the divider, which adds +0),
// a source in reach of one lane only — and runs it under strengths at
// the ends of the admitted range and beyond them, where the whole call
// takes the plain loop.
func TestSweepCutTurnedAway(t *testing.T) {
	needSweeps(t)
	const rc = 0.75 // rc*rc and the 0.75 below are exact
	negZero := math.Copysign(0, -1)
	box := NewBox(10, 2, Reflective)
	var targets []Particle
	for i := 0; i < 7; i++ {
		targets = append(targets, Particle{ID: uint32(i), Pos: vec.Vec2{X: 1 + float64(i)/64, Y: 1},
			Force: vec.Vec2{X: negZero, Y: negZero}})
	}
	sources := nearAndFar(29, 40, 11)
	var near []int
	for j := range sources {
		if sources[j].ID < 5000 {
			near = append(near, j)
		}
	}
	x := targets[2].Pos.X
	if d := x - (x + rc); d*d != rc*rc {
		t.Fatal("geometry: the pair is not exactly on the cutoff sphere")
	}
	sources[near[5]].Pos = vec.Vec2{X: x + rc, Y: 1}                   // on target 2's sphere
	sources[near[6]].Pos = vec.Vec2{X: math.Nextafter(x+rc, 10), Y: 1} // an ulp outside it
	sources[near[9]].Pos = targets[1].Pos                              // r2 == 0 in one lane
	sources[near[14]].Pos = targets[5].Pos                             // and in the remainder group
	sources[near[18]].Pos = vec.Vec2{X: targets[0].Pos.X - rc, Y: 1}   // reaches lane 0 alone
	sources[near[28]].Pos = targets[3].Pos                             // behind the last whole block
	sources[near[20]].ID = targets[4].ID                               // in reach, but itself
	strengths := []float64{1.3, -1.3, pipeKMin, pipeKMax, -pipeKMax,
		math.Nextafter(pipeKMin, 0), math.Nextafter(pipeKMax, math.Inf(1)),
		0, negZero, 5e-324, math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, kk := range strengths {
		for _, soft := range []float64{0, 1e-3} {
			checkSweeps(t, Law{Kind: Repulsive, K: kk, Softening: soft, Cutoff: rc}, box, targets, sources)
		}
	}
}

// TestSeamTest holds the test that lets a periodic call run without the
// wrap to its claim — no pair's displacement beyond half the box, ends
// included — and to its other verdict, all positions in the box.
func TestSeamTest(t *testing.T) {
	const l = 3.0
	up, down := math.Nextafter(1.5, 2), math.Nextafter(1.5, 1)
	for _, c := range []struct {
		tlo, thi, slo, shi float64
		ok, seam           bool
	}{
		{0.5, 1.5, 0, 1, true, false}, // thi - slo == l/2
		{0.5, up, 0, 1, true, true},
		{0, 1, 0.5, 1.5, true, false}, // tlo - shi == -l/2
		{0, 1, 0.5, up, true, true},
		{0, down, 0, down, true, false},
		{0, l, 0, l, true, true},
		{0, 0.1, 2.9, l, true, true},
		{-0.1, 1, 0, 1, false, false},
		{0, 1, 0, math.Nextafter(l, 4), false, true},
		{math.NaN(), math.NaN(), 0, 1, false, true},
		{math.Inf(1), math.Inf(-1), 0, l, true, false}, // no targets
	} {
		if ok, seam := wraps(c.tlo, c.thi, c.slo, c.shi, l); ok != c.ok || ok && seam != c.seam {
			t.Errorf("targets [%g, %g], sources [%g, %g]: in box %v, seam %v, want %v, %v", c.tlo, c.thi, c.slo, c.shi, ok, seam, c.ok, c.seam)
		}
	}
}

// TestExtent holds the vector scan to min and max over every count up to
// a few iterations and its tail, with a NaN, an infinity or a signed
// zero planted at every position: NaN where a coordinate is NaN, and
// the extremes, up to a zero's sign, elsewhere.
func TestExtent(t *testing.T) {
	needSweeps(t)
	lo, hi := extent([]Particle{{Pos: vec.Vec2{X: 1, Y: -2}}, {Pos: vec.Vec2{X: -1, Y: 5}}, {Pos: vec.Vec2{X: 0.5, Y: 0}}})
	if want := (vec.Vec2{X: -1, Y: -2}); lo != want {
		t.Errorf("extent: low corner %v, want %v", lo, want)
	}
	if want := (vec.Vec2{X: 1, Y: 5}); hi != want {
		t.Errorf("extent: high corner %v, want %v", hi, want)
	}
	same := func(got, want float64) bool { return got == want || math.IsNaN(got) && math.IsNaN(want) }
	for n := 0; n <= 19; n++ {
		for at := -1; at < n; at++ {
			for _, odd := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), -7} {
				ps := InitUniform(n, NewBox(3, 2, Reflective), uint64(n))
				if at >= 0 {
					ps[at].Pos.Y = odd
				}
				inf := math.Inf(1)
				want := [4]float64{inf, inf, -inf, -inf}
				for _, p := range ps {
					want = [4]float64{min(want[0], p.Pos.X), min(want[1], p.Pos.Y), max(want[2], p.Pos.X), max(want[3], p.Pos.Y)}
				}
				lo, hi := extent(ps)
				if got := [4]float64{lo.X, lo.Y, hi.X, hi.Y}; !same(got[0], want[0]) || !same(got[1], want[1]) || !same(got[2], want[2]) || !same(got[3], want[3]) {
					t.Fatalf("n=%d, %g at %d: extent %v, want %v", n, odd, at, got, want)
				}
			}
		}
	}
}

// checkQuotient holds one vector of the pipelined loop's quotient stage to
// Go's kk/a and returns whether its guard took the divider.
func checkQuotient(t *testing.T, kk float64, a [4]float64) bool {
	t.Helper()
	var q [4]float64
	divider := quotientAVX512(&a, kk, &q)
	for i := range a {
		if want := kk / a[i]; !sameOrNaN(q[i], want) {
			t.Fatalf("%x / %x (lane %d, divider %v) = %x, Go says %x", math.Float64bits(kk), math.Float64bits(a[i]),
				i, divider, math.Float64bits(q[i]), math.Float64bits(want))
		}
	}
	return divider
}

// TestQuotientRandom: 1.2e7 random divisors over six hundred binades,
// under strengths of either sign over as many.
func TestQuotientRandom(t *testing.T) {
	needPipe(t)
	rng := vec.NewRNG(1)
	operand := func() float64 { return math.Ldexp(1+rng.Float64(), intn(rng, 601)-300) }
	calls := 3_000_000
	if testing.Short() {
		calls /= 10
	}
	for n := 0; n < calls; n++ {
		kk := operand()
		if n%2 == 1 {
			kk = -kk
		}
		checkQuotient(t, kk, [4]float64{operand(), operand(), operand(), operand()})
	}
}

// TestQuotientDirected is the table of divisors the quotient's proof
// singles out. Left to the FMA sequence, a divisor whose significand is
// all ones can come out wrong — 1/0x3FEFFFFFFFFFFFFF does, one ulp low —
// so those must be seen taking the divider, as must everything outside
// the window of exponents; an ordinary divisor inside it must not.
func TestQuotientDirected(t *testing.T) {
	needPipe(t)
	const ones = 1<<52 - 1
	lowest, highest := 0x1p-511, math.Nextafter(0x1p+513, 0) // the window's ends
	frac := func(m uint64, exp int) float64 { return math.Ldexp(math.Float64frombits(0x3FF<<52|m), exp) }
	exps := []int{-511, -500, -300, -1, 0, 1, 52, 300, 500, 512}
	strengths := []float64{1, 1.3, -1.3, 3, math.Nextafter(2, 0), pipeKMin, pipeKMax, -pipeKMin, -pipeKMax}
	for _, kk := range strengths {
		for _, e := range exps {
			if !checkQuotient(t, kk, [4]float64{1.5, frac(ones, e), 1.25, 1.75}) {
				t.Errorf("K=%g: divisor %x with an all-ones significand did not take the divider", kk, math.Float64bits(frac(ones, e)))
			}
			// Significands 0 (a power of two may take either way), 1, and
			// either side of one half.
			checkQuotient(t, kk, [4]float64{frac(0, e), frac(0, e), frac(0, e), frac(0, e)})
			if checkQuotient(t, kk, [4]float64{frac(1, e), frac(1<<51-1, e), frac(1<<51+1, e), frac(ones-1, e)}) {
				t.Errorf("K=%g: ordinary divisors at 2^%d took the divider", kk, e)
			}
		}
		outside := []float64{0, math.Copysign(0, -1), 5e-324, 0x1p-1023, math.Inf(1), math.Inf(-1), math.NaN(),
			-1.5, math.Nextafter(lowest, 0), math.Nextafter(highest, math.Inf(1)), 0x1p+1000, math.MaxFloat64}
		for _, a := range outside {
			for lane := 0; lane < 4; lane++ {
				v := [4]float64{1.5, 2.5, 3.5, 4.5}
				v[lane] = a
				if !checkQuotient(t, kk, v) {
					t.Errorf("K=%g: divisor %g outside the window did not take the divider", kk, a)
				}
			}
		}
		if checkQuotient(t, kk, [4]float64{math.Nextafter(lowest, 1), 1.5 * lowest, 0.75 * highest, math.Nextafter(highest, 0)}) {
			t.Errorf("K=%g: ordinary divisors at the ends of the window took the divider", kk)
		}
	}
}

// TestCPUSweeps runs the start-up check on made-up CPUs: each sweep needs
// every one of its CPUID bits and every one of its XCR0 bits, and XCR0
// is not read unless CPUID says it can be.
func TestCPUSweeps(t *testing.T) {
	const (
		fma, popcnt, osxsave, avx = 1 << 12, 1 << 23, 1 << 27, 1 << 28 // leaf 1 ECX
		avx2, avx512f, avx512vl   = 1 << 5, 1 << 16, 1 << 31           // leaf 7 EBX
		ymmState, evexState       = 0x06, 0xE0                         // XCR0
	)
	probe := func(maxLeaf, c1, b7, xcr0 uint32) (bool, bool) {
		return cpuSweeps(func(leaf uint32) (uint32, uint32, uint32, uint32) {
			switch leaf {
			case 0:
				return maxLeaf, 0, 0, 0
			case 1:
				return 0, 0, c1, 0
			case 7:
				if maxLeaf >= 7 {
					return 0, b7, 0, 0
				}
			}
			t.Fatalf("read CPUID leaf %d of a CPU whose highest is %d", leaf, maxLeaf)
			return 0, 0, 0, 0
		}, func() uint32 {
			if c1&osxsave == 0 {
				t.Fatal("XGETBV without OSXSAVE")
			}
			return xcr0
		})
	}
	const c1, b7, x = fma | popcnt | osxsave | avx, avx2 | avx512f | avx512vl, 1 | ymmState | evexState
	cases := []struct {
		name               string
		maxLeaf, c1, b7, x uint32
		avx2, pipe         bool
	}{
		{"everything", 27, c1, b7, x, true, true},
		{"old CPUID", 6, c1, b7, x, false, false},
		{"no OSXSAVE", 27, c1 &^ osxsave, b7, x, false, false},
		{"no AVX", 27, c1 &^ avx, b7, x, false, false},
		{"no AVX2", 27, c1, b7 &^ avx2, x, false, false},
		{"OS without YMM state", 27, c1, b7, x &^ 4, false, false},
		{"no FMA", 27, c1 &^ fma, b7, x, true, false},
		{"no POPCNT", 27, c1 &^ popcnt, b7, x, true, false},
		{"no AVX-512F", 27, c1, b7 &^ avx512f, x, true, false},
		{"no AVX-512VL", 27, c1, b7 &^ avx512vl, x, true, false},
		{"OS without opmask state", 27, c1, b7, x &^ 0x20, true, false},
		{"OS without ZMM_Hi256 state", 27, c1, b7, x &^ 0x40, true, false},
		{"OS without Hi16_ZMM state", 27, c1, b7, x &^ 0x80, true, false},
	}
	for _, c := range cases {
		if a, p := probe(c.maxLeaf, c.c1, c.b7, c.x); a != c.avx2 || p != c.pipe {
			t.Errorf("%s: avx2 %v pipelined %v, want %v %v", c.name, a, p, c.avx2, c.pipe)
		}
	}
	// And the real thing against the kernel's own reading, where there is one.
	cpuinfo, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to hold the real CPU to")
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(cpuinfo), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if want := flags["avx2"]; useAVX2 != want {
		t.Errorf("useAVX2 = %v, /proc/cpuinfo says %v", useAVX2, want)
	}
	if want := flags["avx2"] && flags["fma"] && flags["popcnt"] && flags["avx512f"] && flags["avx512vl"]; usePipe != want {
		t.Errorf("usePipe = %v, /proc/cpuinfo says %v", usePipe, want)
	}
}

// BenchmarkSweep times each loop of the two sweeps against its Go loop at
// the block shapes of the repository benchmark's workloads (uniform
// random positions, so the cutoff rows see few groups wholly out of
// reach), and the cutoff sweep on the blocks that take its parts apart.
// In a box of 16 under a cutoff of 4 — the cutoff workloads' — a team's
// block is a 4 by 4 cell: one out of reach prices the gate alone, ns/pair
// times four being its cost per (group, source); two in one corner, every
// pair in reach, the gate and the pipelined loop; the jittered lattice's
// block against its edge and diagonal neighbours is what cutoff-2d sweeps;
// and in a periodic box the neighbour across the seam pays for the wrap,
// the one on this side does not.
func BenchmarkSweep(b *testing.B) {
	needSweeps(b)
	open, cut := DefaultLaw(), DefaultLaw().WithCutoff(0.9)
	uniform := func(law Law, box Box, nt, ns int) (Law, Box, []Particle, []Particle) {
		return law, box, InitUniform(nt, box, 1), relabel(InitUniform(ns, box, 2), uint32(nt))
	}
	// cell is the block of the 64 by 64 lattice in cell (cx, cy) of box.
	cell := func(box Box, cx, cy int) []Particle {
		var ps []Particle
		for _, p := range InitLattice(4096, box, 1) {
			if int(p.Pos.X/4) == cx && int(p.Pos.Y/4) == cy {
				ps = append(ps, p)
			}
		}
		return ps
	}
	cells := func(boundary Boundary, cx, cy int) (Law, Box, []Particle, []Particle) {
		box := NewBox(16, 2, boundary)
		return DefaultLaw().WithCutoff(4), box, cell(box, 0, 0), cell(box, cx, cy)
	}
	cases := []struct {
		name   string
		blocks func() (Law, Box, []Particle, []Particle)
	}{
		{"rep_open/2048x2048", func() (Law, Box, []Particle, []Particle) { return uniform(open, NewBox(10, 2, Reflective), 2048, 2048) }},
		{"rep_open/8x8", func() (Law, Box, []Particle, []Particle) { return uniform(open, NewBox(10, 2, Reflective), 8, 8) }},
		{"rep_cut_in/reflective2d/256x256", func() (Law, Box, []Particle, []Particle) { return uniform(cut, NewBox(3, 2, Reflective), 256, 256) }},
		{"rep_cut_in/periodic2d/256x256", func() (Law, Box, []Particle, []Particle) { return uniform(cut, NewBox(3, 2, Periodic), 256, 256) }},
		{"rep_cut_in/periodic1d/64x64", func() (Law, Box, []Particle, []Particle) { return uniform(cut, NewBox(3, 1, Periodic), 64, 64) }},
		{"rep_cut_in/uniform16_rc4/256x256", func() (Law, Box, []Particle, []Particle) {
			return uniform(DefaultLaw().WithCutoff(4), NewBox(16, 2, Reflective), 256, 256)
		}},
		{"rep_cut_in/all_beyond/256x256", func() (Law, Box, []Particle, []Particle) { return cells(Reflective, 3, 3) }},
		{"rep_cut_in/all_inside/256x256", func() (Law, Box, []Particle, []Particle) {
			law, box, targets, sources := cells(Reflective, 0, 0)
			for i := range targets {
				targets[i].Pos = targets[i].Pos.Scale(0.5)
				sources[i].Pos = sources[i].Pos.Scale(0.5)
			}
			return law, box, targets, relabel(sources, 5000)
		}},
		{"rep_cut_in/lattice_edge/256x256", func() (Law, Box, []Particle, []Particle) { return cells(Reflective, 1, 0) }},
		{"rep_cut_in/lattice_diagonal/256x256", func() (Law, Box, []Particle, []Particle) { return cells(Reflective, 1, 1) }},
		{"rep_cut_in/periodic_no_seam/256x256", func() (Law, Box, []Particle, []Particle) { return cells(Periodic, 1, 0) }},
		{"rep_cut_in/periodic_seam/256x256", func() (Law, Box, []Particle, []Particle) { return cells(Periodic, 3, 0) }},
	}
	for _, c := range cases {
		law, box, targets, sources := c.blocks()
		k := law.Kernel()
		run := func(name string, fn func() int64) {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				var pairs int64
				for i := 0; i < b.N; i++ {
					pairs = fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			})
		}
		if law.Cutoff > 0 {
			run("go", func() int64 { return k.accumulateCut(targets, sources, box) })
			for name, pipe := range cutLoops() {
				run(name, func() int64 { return k.sweepInRepCutVia(pipe, targets, sources, box) })
			}
		} else {
			run("go", func() int64 { return k.accumulateRepOpen(targets, sources) })
			for name, pipe := range openLoops() {
				run(name, func() int64 { return k.sweepRepOpenVia(pipe, targets, [][]Particle{sources}) })
			}
		}
	}
	// The diagonal visit: a block against itself, on the symmetric sweep
	// and on the loops of the law's sweep. ns/pair is per ordered pair
	// counted, so the symmetric row reads half the evaluations. The
	// cutoff rows are a cutoff workload's own block: cutoff-small's, a
	// team of a 1D periodic box of 16 under a cutoff of 4 — one team
	// width, all pairs in reach — and a cell of cutoff-2d's lattice.
	selfRun := func(name string, ps []Particle, loops map[string]func([]Particle) int64) {
		for loop, sweep := range loops {
			b.Run(name+"/"+loop, func(b *testing.B) {
				var pairs int64
				for i := 0; i < b.N; i++ {
					pairs = sweep(ps)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			})
		}
	}
	for _, n := range []int{256, 2048} {
		selfRun(fmt.Sprintf("rep_open_self/%d", n), InitUniform(n, NewBox(10, 2, Reflective), 1), selfLoops(open.Kernel(), Box{}))
	}
	periodic1d := NewBox(16, 1, Periodic)
	team := InitLattice(512, periodic1d, 1)[:128]
	selfRun("rep_cut_self/128/periodic1d", team, selfLoops(DefaultLaw().WithCutoff(4).Kernel(), periodic1d))
	_, box, lattice, _ := cells(Reflective, 0, 0)
	selfRun("rep_cut_self/256/lattice", lattice, selfLoops(DefaultLaw().WithCutoff(4).Kernel(), box))
}

// intn returns a uniform value in [0, n) drawn from rng.
func intn(rng *vec.RNG, n int) int { return int(rng.Uint64() % uint64(n)) }
