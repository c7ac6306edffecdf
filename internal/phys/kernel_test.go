package phys

import (
	"fmt"
	"math"
	"testing"
)

// kernelLawGrid enumerates the law space the specialized kernels must
// cover: both potential kinds crossed with open/short/long cutoffs and
// zero/non-zero softening. Cutoff 0.9 on a box of side 3 guarantees a
// mix of interacting and beyond-cutoff pairs.
func kernelLawGrid() []Law {
	var laws []Law
	for _, rc := range []float64{0, 0.9, 2.5} {
		for _, soft := range []float64{0, 1e-3} {
			laws = append(laws,
				Law{Kind: Repulsive, K: 1.3, Softening: soft, Cutoff: rc},
				Law{Kind: LennardJones, Epsilon: 0.7, Sigma: 0.4, Softening: soft, Cutoff: rc},
			)
		}
	}
	return laws
}

// kernelSources builds a source set that exercises every skip branch
// against targets: a full replica (equal IDs, including exactly
// coincident positions), plus disjoint-ID particles.
func kernelSources(targets []Particle, box Box, seed uint64) []Particle {
	sources := append([]Particle(nil), targets...)
	extra := InitUniform(len(targets), box, seed+100)
	for i := range extra {
		extra[i].ID += uint32(len(targets))
	}
	return append(sources, extra...)
}

// seedForces gives every particle a distinct non-trivial accumulator so
// the tests verify accumulation on top of prior forces, not just the
// from-zero sum. One target gets -0 to pin the +0 normalization the
// generic path performs for beyond-cutoff and coincident pairs.
func seedForces(ps []Particle) {
	for i := range ps {
		ps[i].Force.X = 0.25 * float64(i)
		ps[i].Force.Y = -0.125 * float64(i)
	}
	if len(ps) > 0 {
		ps[0].Force.X = math.Copysign(0, -1)
		ps[0].Force.Y = math.Copysign(0, -1)
	}
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// sameOrNaN is bitsEqual with any two NaNs equal: overflowing inputs
// make them, and their payloads are not part of any contract here.
func sameOrNaN(a, b float64) bool {
	return bitsEqual(a, b) || math.IsNaN(a) && math.IsNaN(b)
}

// compareForces asserts got and want match bitwise, force for force.
func compareForces(t *testing.T, got, want []Particle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("particle count %d != %d", len(got), len(want))
	}
	for i := range got {
		if !bitsEqual(got[i].Force.X, want[i].Force.X) || !bitsEqual(got[i].Force.Y, want[i].Force.Y) {
			t.Fatalf("particle %d: force (%x, %x) != generic (%x, %x)",
				i,
				math.Float64bits(got[i].Force.X), math.Float64bits(got[i].Force.Y),
				math.Float64bits(want[i].Force.X), math.Float64bits(want[i].Force.Y))
		}
	}
}

// kernelBoxes are the metrics of the kernel table: Box{}, under which
// AccumulateIn is Accumulate, and reflective and periodic boxes in one
// and two dimensions.
var kernelBoxes = []Box{{}, NewBox(3, 1, Reflective), NewBox(3, 2, Reflective), NewBox(3, 1, Periodic), NewBox(3, 2, Periodic)}

// TestKernelMatchesGenericAccumulate and TestKernelMatchesGenericAccumulateIn
// run one table, kernelBoxes × kernelLawGrid — the first its Box{} row,
// named by law alone, the second the boxes (see kernelTable).
func TestKernelMatchesGenericAccumulate(t *testing.T)   { kernelTable(t, kernelBoxes[:1]) }
func TestKernelMatchesGenericAccumulateIn(t *testing.T) { kernelTable(t, kernelBoxes[1:]) }

// kernelTable holds AccumulateIn — and under Box{} Accumulate too — to
// the generic per-pair path, from seeded accumulators: every force bit
// and the pair count. The reference of an open law is taken under Box{}
// whatever the box, so an open law must ignore it. And a target that
// meets nothing but pairs beyond a cutoff must keep seedForces' -0
// accumulator: a cutoff law skips such a pair under either entry point.
func kernelTable(t *testing.T, boxes []Box) {
	for _, box := range boxes {
		space, name := box, fmt.Sprintf("%v_%d/", box.Boundary, box.Dim)
		if box == (Box{}) {
			space, name = NewBox(3, 2, Reflective), ""
		}
		for _, law := range kernelLawGrid() {
			t.Run(fmt.Sprintf("%s%v_rc%g_soft%g", name, law.Kind, law.Cutoff, law.Softening), func(t *testing.T) {
				kern := law.Kernel()
				entries := map[string]func(targets, sources []Particle) int64{
					"AccumulateIn": func(ts, ss []Particle) int64 { return kern.AccumulateIn(ts, ss, box) },
				}
				if box == (Box{}) {
					entries["Accumulate"] = kern.Accumulate
				}
				ref := box
				if law.Cutoff == 0 {
					ref = Box{}
				}
				for seed := uint64(1); seed <= 3; seed++ {
					targets := InitUniform(24, space, seed)
					seedForces(targets)
					sources := kernelSources(targets, space, seed)
					want := append([]Particle(nil), targets...)
					nWant := law.AccumulateGeneric(want, sources, ref)
					var beyond []Particle // target 0's sources out of reach
					for _, s := range sources {
						if law.Cutoff > 0 && box.MinImage(targets[0].Pos, s.Pos).Norm2() > law.Cutoff*law.Cutoff {
							beyond = append(beyond, s)
						}
					}
					for entry, accumulate := range entries {
						got := append([]Particle(nil), targets...)
						if n := accumulate(got, sources); n != nWant {
							t.Fatalf("seed %d: %s counted %d evaluations, generic %d", seed, entry, n, nWant)
						}
						compareForces(t, got, want)
						if len(beyond) == 0 {
							continue
						}
						lone := append([]Particle(nil), targets[0])
						accumulate(lone, beyond)
						if negZero := math.Copysign(0, -1); !bitsEqual(lone[0].Force.X, negZero) || !bitsEqual(lone[0].Force.Y, negZero) {
							t.Fatalf("seed %d: %s added for %d pairs beyond the cutoff: -0 came back as (%x, %x)", seed, entry,
								len(beyond), math.Float64bits(lone[0].Force.X), math.Float64bits(lone[0].Force.Y))
						}
					}
				}
			})
		}
	}
}

// longBlock is a source count beyond what one assembly call of the AVX2
// sweeps takes (sweepChunk; sweep_amd64_test.go holds the two apart).
const longBlock = 4099

// TestAccumulateBlocksMatchesPerBlock holds AccumulateBlocks to the
// calls it stands for — one AccumulateIn per block, in order, here in a
// periodic box — for both laws, open and cut off, the three cases
// without the blocks sweep included: every force bit,
// and a pair count equal to the calls' sum and to Interactions. The
// target counts cover every remainder of the sweep's lane groups and a
// ragged tail behind ten full ones; the lists cover no block, one,
// empty ones between others, the targets' own IDs, a block longer than
// one assembly call, and blocks either side of the length at which the
// open sweep changes loops.
func TestAccumulateBlocksMatchesPerBlock(t *testing.T) {
	box := NewBox(3, 2, Periodic)
	laws := []Law{
		{Kind: Repulsive, K: 1.3, Softening: 1e-3}, // the flavor with a sweep
		{Kind: Repulsive, K: 1.3, Softening: 1e-3, Cutoff: 0.9},
		LJLaw(0.7, 0.4),
		LJLaw(0.7, 0.4).WithCutoff(0.9),
	}
	for _, law := range laws {
		k := law.Kernel()
		for _, nt := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 40} {
			targets := InitUniform(nt, box, uint64(nt)+1)
			seedForces(targets)
			strangers := func(n int, seed uint64) []Particle {
				return relabel(InitUniform(n, box, seed), uint32(nt)+uint32(10000*seed))
			}
			own := append([]Particle(nil), targets...)
			var ring [][]Particle // the all-pairs shape: many short blocks
			for b := uint64(0); b < 16; b++ {
				ring = append(ring, strangers(8, 20+b))
			}
			lists := []struct {
				name   string
				blocks [][]Particle
			}{
				{"none", nil},
				{"one", [][]Particle{strangers(7, 2)}},
				{"empties", [][]Particle{nil, strangers(5, 3), {}, strangers(8, 4), nil}},
				{"own", [][]Particle{strangers(3, 5), own, strangers(4, 6), own[:nt/2]}},
				{"ownOnly", [][]Particle{own[:min(nt, 1)], nil, own[:min(nt, 1)]}},
				{"long", [][]Particle{strangers(2, 7), strangers(longBlock, 8), strangers(3, 9)}},
				{"mixed", [][]Particle{strangers(15, 10), strangers(16, 11), nil, own, strangers(8, 12), strangers(37, 13)}},
				{"ring", ring},
			}
			for _, tc := range lists {
				t.Run(fmt.Sprintf("%v_rc%g/%d targets/%s", law.Kind, law.Cutoff, nt, tc.name), func(t *testing.T) {
					want := append([]Particle(nil), targets...)
					got := append([]Particle(nil), targets...)
					var nWant int64
					ns, shared := 0, 0
					for _, b := range tc.blocks {
						nWant += k.AccumulateIn(want, b, box)
						ns += len(b)
						for i := range b {
							if int(b[i].ID) < nt {
								shared++
							}
						}
					}
					nGot := k.AccumulateBlocks(got, tc.blocks, box)
					if nGot != nWant || nGot != interactions(nt, ns, shared) {
						t.Fatalf("counted %d pairs, the per-block calls %d, Interactions %d",
							nGot, nWant, interactions(nt, ns, shared))
					}
					compareForces(t, got, want)
					// Target 0 met nothing but its own ID and was never added
					// to: seedForces' -0 accumulator comes back as -0 (as
					// TestSweepKeepsNegativeZero pins for the single block).
					if negZero := math.Copysign(0, -1); tc.name == "ownOnly" && nt > 0 &&
						!(bitsEqual(got[0].Force.X, negZero) && bitsEqual(got[0].Force.Y, negZero)) {
						t.Fatalf("untouched -0 accumulator came back as (%x, %x)",
							math.Float64bits(got[0].Force.X), math.Float64bits(got[0].Force.Y))
					}
				})
			}
		}
	}
}

// BenchmarkAccumulateBlocks prints the kernel's half of what the
// all-pairs loop's batch size is read off (sweepBatch in internal/core):
// ns/pair of one call for 8 targets — the block of the benchmark's
// ap-latency workload — against the number of sources it sweeps,
// gathered in blocks of 8, caches hot. The fixed cost of a call (lane
// set-up, a divider pipeline that fills and drains) is what the left end
// pays.
func BenchmarkAccumulateBlocks(b *testing.B) {
	box := NewBox(10, 2, Reflective)
	k := DefaultLaw().Kernel()
	targets := InitUniform(8, box, 1)
	for _, ns := range []int{8, 16, 32, 64, 128, 256} {
		var blocks [][]Particle
		for i := 1; i <= ns/8; i++ {
			blocks = append(blocks, relabel(InitUniform(8, box, uint64(1+i)), uint32(8*i)))
		}
		b.Run(fmt.Sprintf("8x%d", ns), func(b *testing.B) {
			var pairs int64
			for i := 0; i < b.N; i++ {
				pairs = k.AccumulateBlocks(targets, blocks, Box{})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
		})
	}
}

// BenchmarkKernelGo times every entry of the kernel table on one batch
// shape — 256 targets, 512 sources of which 256 carry the targets' own
// IDs, in a box of 3 — in ns/pair: each law open and under a cutoff of
// 0.9, through Accumulate and through AccumulateIn of a reflective and a
// periodic 2D box. Where Impl is not "portable" the repulsive rows time
// the vector sweeps; -tags purego times the Go loops:
//
//	go test -tags purego -run NONE -bench KernelGo ./internal/phys/
func BenchmarkKernelGo(b *testing.B) {
	boxes := []struct {
		name string
		box  Box
	}{{"Accumulate", Box{}}, {"reflective", NewBox(3, 2, Reflective)}, {"periodic", NewBox(3, 2, Periodic)}}
	space := NewBox(3, 2, Reflective)
	targets := InitUniform(256, space, 1)
	sources := append(append([]Particle(nil), targets...), relabel(InitUniform(256, space, 2), 256)...)
	for _, law := range []Law{DefaultLaw(), LJLaw(0.7, 0.4)} {
		for _, rc := range []float64{0, 0.9} {
			k := law.WithCutoff(rc).Kernel()
			for _, bx := range boxes {
				b.Run(fmt.Sprintf("%v/rc%g/%s", law.Kind, rc, bx.name), func(b *testing.B) {
					var pairs int64
					for i := 0; i < b.N; i++ {
						pairs = k.AccumulateIn(targets, sources, bx.box)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
				})
			}
		}
	}
}

// TestKernelUnknownKindFallsBackToRepulsive pins the dispatch default:
// an unrecognized potential kind must behave exactly like pairVec's
// default case (repulsive), not crash or zero out.
func TestKernelUnknownKindFallsBackToRepulsive(t *testing.T) {
	box := NewBox(3, 2, Reflective)
	weird := Law{Kind: Potential(97), K: 2.1, Softening: 1e-3, Cutoff: 0.9}
	targets := InitUniform(16, box, 4)
	sources := kernelSources(targets, box, 4)

	generic := append([]Particle(nil), targets...)
	fast := append([]Particle(nil), targets...)
	kern := weird.Kernel()
	ng := weird.AccumulateGeneric(generic, sources, Box{})
	nf := kern.Accumulate(fast, sources)
	if ng != nf {
		t.Fatalf("kernel counted %d evaluations, generic %d", nf, ng)
	}
	compareForces(t, fast, generic)
}

// TestCellListForcesMatchesGeneric holds the cell list — the second
// serial reference — to the first, the generic per-pair brute force,
// across kinds, boundaries and dimensions. The two visit the same pairs
// within the cutoff in different orders, so each force agrees to
// rounding, not bit for bit.
func TestCellListForcesMatchesGeneric(t *testing.T) {
	for _, boundary := range []Boundary{Reflective, Periodic} {
		for _, dim := range []int{1, 2} {
			box := NewBox(4, dim, boundary)
			laws := []Law{
				DefaultLaw().WithCutoff(0.9),
				{Kind: Repulsive, K: 1.3, Cutoff: 1.1}, // zero softening
				LJLaw(0.7, 0.4).WithCutoff(0.9),
				{Kind: LennardJones, Epsilon: 0.7, Sigma: 0.4, Cutoff: 1.1},
			}
			for _, law := range laws {
				law, box := law, box
				t.Run(fmt.Sprintf("%v_%d/%v_rc%g_soft%g", boundary, dim, law.Kind, law.Cutoff, law.Softening), func(t *testing.T) {
					for seed := uint64(1); seed <= 3; seed++ {
						ps := InitUniform(40, box, seed)
						want := append([]Particle(nil), ps...)
						BruteForceCutoff(want, law, box)
						got := append([]Particle(nil), ps...)
						NewCellList(got, law.Cutoff, box).Forces(got, law)
						for i := range got {
							// Lennard-Jones forces of a close pair run to 1e9 and
							// more: the tolerance scales with the force.
							if d := got[i].Force.Sub(want[i].Force).Norm(); d > 1e-9*(1+want[i].Force.Norm()) {
								t.Fatalf("seed %d particle %d: cell list force %+v, brute force %+v", seed, i, got[i].Force, want[i].Force)
							}
						}
					}
				})
			}
		}
	}
}

// TestKernelAccumulateSelf holds AccumulateSelf to the generic path over
// the block and a copy of it, for every law and on every build: the
// symmetric sweep where this host runs it, AccumulateIn elsewhere. A
// cutoff law measures under the box it is given: in the periodic box,
// pairs across the wrap interact only by the minimum image. The longest
// block is squeezed within the cutoff, where a cutoff law takes the
// symmetric sweep too.
func TestKernelAccumulateSelf(t *testing.T) {
	laws := []Law{DefaultLaw(), {Kind: Repulsive, K: 1.3}, DefaultLaw().WithCutoff(0.9), LJLaw(0.7, 0.4), LJLaw(0.7, 0.4).WithCutoff(0.9)}
	for _, box := range []Box{NewBox(3, 2, Reflective), NewBox(3, 2, Periodic), NewBox(3, 1, Periodic)} {
		for _, law := range laws {
			k := law.Kernel()
			for _, n := range []int{0, 1, 5, 16, 17, 66, 129} {
				ps := InitUniform(n, box, uint64(n)+3)
				if n > 100 { // a block within the cutoff: the symmetric sweep's under a cutoff law
					for i := range ps {
						ps[i].Pos = ps[i].Pos.Scale(0.25)
					}
				}
				seedForces(ps)
				want := append([]Particle(nil), ps...)
				nWant := law.AccumulateGeneric(want, append([]Particle(nil), ps...), box)
				if nGot := k.AccumulateSelf(ps, box); nGot != nWant || nGot != interactions(n, n, n) {
					t.Fatalf("law %+v %v n=%d: counted %d pairs, the generic path %d", law, box.Boundary, n, nGot, nWant)
				}
				compareForces(t, ps, want)
			}
		}
	}
}

// TestKernelAllocs guards the fast path's zero-allocation claim: the
// specialized loops, the cell-list walk over a built list, and the
// append-style encode/decode must not touch the heap in steady state.
func TestKernelAllocs(t *testing.T) {
	box := NewBox(3, 2, Periodic)
	law := LJLaw(0.7, 0.4).WithCutoff(0.9)
	kern := law.Kernel()
	targets := InitUniform(32, box, 1)
	sources := kernelSources(targets, box, 1)

	if a := testing.AllocsPerRun(10, func() { kern.Accumulate(targets, sources) }); a != 0 {
		t.Errorf("Kernel.Accumulate allocated %.1f times per run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { kern.AccumulateIn(targets, sources, box) }); a != 0 {
		t.Errorf("Kernel.AccumulateIn allocated %.1f times per run, want 0", a)
	}
	blocks := [][]Particle{sources[:5], sources[5:40], sources[40:]}
	if a := testing.AllocsPerRun(10, func() { kern.AccumulateBlocks(targets, blocks, box) }); a != 0 {
		t.Errorf("Kernel.AccumulateBlocks allocated %.1f times per run, want 0", a)
	}

	// The repulsive law takes the AVX2 sweeps where the CPU has them
	// (Impl): their lane state and spread constants must stay on the
	// stack too.
	rep := DefaultLaw().Kernel()
	if a := testing.AllocsPerRun(10, func() { rep.Accumulate(targets, sources) }); a != 0 {
		t.Errorf("%s repulsive Accumulate allocated %.1f times per run, want 0", rep.Impl(), a)
	}
	if a := testing.AllocsPerRun(10, func() { rep.AccumulateBlocks(targets, blocks, box) }); a != 0 {
		t.Errorf("%s repulsive AccumulateBlocks allocated %.1f times per run, want 0", rep.Impl(), a)
	}
	repCut := DefaultLaw().WithCutoff(0.9).Kernel()
	if a := testing.AllocsPerRun(10, func() { repCut.AccumulateIn(targets, sources, box) }); a != 0 {
		t.Errorf("%s repulsive cutoff AccumulateIn allocated %.1f times per run, want 0", repCut.Impl(), a)
	}
	// Nor may the sources its pipelined loop stages, here two chunks of
	// them, or the group the last three targets are padded into.
	many := relabel(InitUniform(300, box, 2), 1000)
	if a := testing.AllocsPerRun(10, func() { repCut.AccumulateIn(targets[:31], many, box) }); a != 0 {
		t.Errorf("%s repulsive cutoff AccumulateIn allocated %.1f times per run over staged sources, want 0", repCut.Impl(), a)
	}
	if a := testing.AllocsPerRun(10, func() { rep.AccumulateBlocks(targets[:31], blocks, box) }); a != 0 {
		t.Errorf("%s repulsive AccumulateBlocks allocated %.1f times per run over a padded group, want 0", rep.Impl(), a)
	}
	// Nor the symmetric sweeps' lanes, over whole groups and a tail: the
	// cutoff law's over a block within its cutoff.
	if a := testing.AllocsPerRun(10, func() { rep.AccumulateSelf(many[:103], box) }); a != 0 {
		t.Errorf("%s repulsive AccumulateSelf allocated %.1f times per run, want 0", rep.Impl(), a)
	}
	dense := append([]Particle(nil), many[:103]...)
	for i := range dense {
		dense[i].Pos = dense[i].Pos.Scale(0.25)
	}
	if a := testing.AllocsPerRun(10, func() { repCut.AccumulateSelf(dense, box) }); a != 0 {
		t.Errorf("%s repulsive cutoff AccumulateSelf allocated %.1f times per run, want 0", repCut.Impl(), a)
	}

	cl := NewCellList(targets, law.Cutoff, box)
	if a := testing.AllocsPerRun(10, func() { cl.Forces(targets, law) }); a != 0 {
		t.Errorf("CellList.Forces allocated %.1f times per run, want 0", a)
	}

	// Encode/decode reuse: after one warm-up grows the buffers, the
	// append-style round trip must be allocation-free.
	var buf []byte
	var scratch []Particle
	roundTrip := func() {
		buf = AppendSlice(buf[:0], targets)
		var err error
		scratch, err = DecodeSliceInto(scratch[:0], buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if a := testing.AllocsPerRun(10, roundTrip); a != 0 {
		t.Errorf("encode/decode round trip allocated %.1f times per run, want 0", a)
	}
}
