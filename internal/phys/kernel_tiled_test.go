package phys

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vec"
)

// TestWrap1MatchesMinImage1 pins the branch-free minimum-image wrap
// against the loop for displacements across the whole fallback
// boundary, including exact half-box and three-half-box edges.
func TestWrap1MatchesMinImage1(t *testing.T) {
	for _, l := range []float64{1, 3, 2.5, 1e-3, 1e300} {
		half := l / 2
		ds := []float64{
			0, math.Copysign(0, -1), 0.1 * l, -0.1 * l,
			half, -half, math.Nextafter(half, l), math.Nextafter(-half, -l),
			0.9 * l, -0.9 * l, l, -l, 1.4 * l, -1.4 * l,
			1.5 * l, -1.5 * l, 1.6 * l, -1.6 * l, 2.3 * l, -2.3 * l, 5 * l, -5 * l,
		}
		for _, d := range ds {
			got := wrap1(d, l, half)
			want := minImage1(d, l)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("wrap1(%g, %g) = %x, minImage1 = %x",
					d, l, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestKernelTileInvariance verifies that the result does not depend on
// where the seams between source tiles fall: for source counts on
// either side of one tile (vec.TileCap = 64), of two, and well beyond,
// both entry points produce bitwise-identical forces and identical pair
// counts to the generic reference, across the law grid, boundaries and
// dimensions. The targets' own IDs — and so their coincident positions —
// sit in source lanes 52..75, straddling the first seam.
func TestKernelTileInvariance(t *testing.T) {
	for _, boundary := range []Boundary{Reflective, Periodic} {
		for _, dim := range []int{1, 2} {
			box := NewBox(3, dim, boundary)
			for _, law := range kernelLawGrid() {
				law, box := law, box
				t.Run(fmt.Sprintf("%v_%d/%v_rc%g_soft%g", boundary, dim, law.Kind, law.Cutoff, law.Softening), func(t *testing.T) {
					targets := InitUniform(24, box, 1)
					seedForces(targets)
					strangers := relabel(InitUniform(200, box, 2), 1000)
					pool := append(append(append([]Particle(nil), strangers[:52]...), targets...), strangers[52:]...)
					kern := law.Kernel()

					for _, ns := range []int{0, 1, 63, 64, 65, 127, 128, 129, 200} {
						sources := pool[:ns]

						generic := append([]Particle(nil), targets...)
						fast := append([]Particle(nil), targets...)
						ng := law.AccumulateGeneric(generic, sources, Box{})
						if nf := kern.Accumulate(fast, sources); nf != ng {
							t.Fatalf("%d sources: Accumulate counted %d, generic %d", ns, nf, ng)
						}
						compareForces(t, fast, generic)

						genericIn := append([]Particle(nil), targets...)
						fastIn := append([]Particle(nil), targets...)
						ngIn := law.AccumulateGeneric(genericIn, sources, box)
						if nf := kern.AccumulateIn(fastIn, sources, box); nf != ngIn {
							t.Fatalf("%d sources: AccumulateIn counted %d, generic %d", ns, nf, ngIn)
						}
						compareForces(t, fastIn, genericIn)
					}
				})
			}
		}
	}
}

// TestSweepStagedMatchesPairFold pins SweepStaged against the generic
// fold it stands for: folding openLaw.Pair(d, 0) over the staged
// displacements in order, from a seeded (including -0) accumulator. A
// coincident pair is staged to exercise the +0 add, and in lane 0 a pair
// whose D2 underflows to 0 while DX is -1e-170: without softening its r2
// is 0, and the fold must add +0 to the -0 seed, not the -0 that 0·DX
// would be.
func TestSweepStagedMatchesPairFold(t *testing.T) {
	box := NewBox(3, 2, Reflective)
	laws := []Law{
		{Kind: Repulsive, K: 1.3, Softening: 1e-3},
		{Kind: Repulsive, K: 1.3}, // zero softening: coincident pair hits the +0 path
		LJLaw(0.7, 0.4),
		{Kind: LennardJones, Epsilon: 0.7, Sigma: 0.4},
	}
	for _, law := range laws {
		t.Run(fmt.Sprintf("%v_soft%g", law.Kind, law.Softening), func(t *testing.T) {
			srcs := InitUniform(vec.TileCap+1, box, 3)
			target := srcs[5] // coincides with staged source 5
			ds := []vec.Vec2{{X: -1e-170}}
			for _, s := range srcs[1:vec.TileCap] {
				ds = append(ds, target.Pos.Sub(s.Pos))
			}
			var st Staged
			for j, d := range ds {
				st.DX[j], st.DY[j], st.D2[j] = d.X, d.Y, d.X*d.X+d.Y*d.Y
			}
			kern := law.Kernel()
			for n := 0; n <= len(ds); n++ {
				fx, fy := math.Copysign(0, -1), 0.625
				gotX, gotY := kern.SweepStaged(fx, fy, &st, n)
				for _, d := range ds[:n] {
					f := law.Pair(d, vec.Vec2{})
					fx += f.X
					fy += f.Y
				}
				if !bitsEqual(gotX, fx) || !bitsEqual(gotY, fy) {
					t.Fatalf("n=%d: staged (%x,%x) != fold (%x,%x)", n,
						math.Float64bits(gotX), math.Float64bits(gotY), math.Float64bits(fx), math.Float64bits(fy))
				}
			}
		})
	}
}

// TestTiledKernelAllocs guards the compaction loop's zero-allocation
// claim for both laws (TestKernelAllocs covers the other loops): the SoA
// and the Staged scratch must live on the stack, never the heap, also
// across a tile seam.
func TestTiledKernelAllocs(t *testing.T) {
	box := NewBox(3, 2, Periodic)
	for _, law := range []Law{DefaultLaw().WithCutoff(0.9), LJLaw(0.7, 0.4).WithCutoff(0.9)} {
		kern := law.Kernel()
		targets := InitUniform(vec.TileCap, box, 1)
		sources := kernelSources(targets, box, 1)

		if a := testing.AllocsPerRun(10, func() { kern.AccumulateIn(targets, sources, box) }); a != 0 {
			t.Errorf("%v: AccumulateIn allocated %.1f times per run, want 0", law.Kind, a)
		}
		var st Staged
		if a := testing.AllocsPerRun(10, func() {
			kern.SweepStaged(0, 0, &st, vec.TileCap)
		}); a != 0 {
			t.Errorf("%v: SweepStaged allocated %.1f times per run, want 0", law.Kind, a)
		}
	}
}
