package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// TestTileWidthInvariance is the kernel tiling analogue of
// TestWorkerCountInvariance: for every algorithm, on both transports,
// at pooled and unpooled widths, every source-tile width must
// reproduce the default-width run bit for bit — final states
// identical, per-phase message/byte counts and measured S/W unchanged.
// Tiling pins accumulation to source order by construction; this pins
// the construction across the knob grid (a degenerate tile, an odd
// width exercising every unroll tail, the tuned default written
// explicitly, and a width at the clamp cap).
func TestTileWidthInvariance(t *testing.T) {
	const n = 64
	algos := []struct {
		name string
		run  func(encoded bool, workers, tile int) ([]phys.Particle, *trace.Report, error)
	}{
		{"allpairs", func(encoded bool, workers, tile int) ([]phys.Particle, *trace.Report, error) {
			pr := defaultParams(4, 2, 3)
			pr.oracle, pr.Workers, pr.Tile = encoded, workers, tile
			return AllPairs(phys.InitUniform(n, pr.Box, 53), pr)
		}},
		{"cutoff", func(encoded bool, workers, tile int) ([]phys.Particle, *trace.Report, error) {
			pr := cutoffParams(8, 2, 1, phys.Periodic)
			pr.oracle, pr.Workers, pr.Tile = encoded, workers, tile
			return Cutoff(phys.InitLattice(n, pr.Box, 53), pr)
		}},
		{"midpoint", func(encoded bool, workers, tile int) ([]phys.Particle, *trace.Report, error) {
			pr := cutoffParams(8, 1, 1, phys.Reflective)
			pr.oracle, pr.Workers, pr.Tile = encoded, workers, tile
			return Midpoint1D(phys.InitLattice(n, pr.Box, 53), pr)
		}},
	}
	for _, alg := range algos {
		for _, encoded := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				want, wantRep, err := alg.run(encoded, workers, 0)
				if err != nil {
					t.Fatalf("%s encoded=%v workers=%d tile=0: %v", alg.name, encoded, workers, err)
				}
				for _, tile := range []int{1, 7, 32, n} {
					got, gotRep, err := alg.run(encoded, workers, tile)
					if err != nil {
						t.Fatalf("%s encoded=%v workers=%d tile=%d: %v", alg.name, encoded, workers, tile, err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s encoded=%v workers=%d tile=%d: particle %d = %+v, want %+v",
								alg.name, encoded, workers, tile, i, got[i], want[i])
						}
					}
					if !sameCommCounts(wantRep, gotRep) {
						t.Errorf("%s encoded=%v workers=%d tile=%d changed per-phase message/byte counts",
							alg.name, encoded, workers, tile)
					}
					if gotRep.S() != wantRep.S() || gotRep.W() != wantRep.W() {
						t.Errorf("%s encoded=%v workers=%d tile=%d: S/W %d/%d, want %d/%d",
							alg.name, encoded, workers, tile, gotRep.S(), gotRep.W(), wantRep.S(), wantRep.W())
					}
				}
			}
		}
	}
}

// TestTiledMatchesUntiled pins the tiled default against the classic
// untiled loops end to end: a run with any positive tile width must be
// bitwise-identical to the same run forced down the pre-tiling code
// path (phys.Kernel.WithTile(-1) — reachable through core only via the
// kernels, so this drives both through the phys layer directly).
func TestTiledMatchesUntiled(t *testing.T) {
	box := phys.NewBox(10, 2, phys.Reflective)
	law := phys.DefaultLaw().WithCutoff(2.5)
	targets := phys.InitUniform(48, box, 61)
	sources := phys.InitUniform(48, box, 62)
	for i := range sources {
		sources[i].ID += uint32(len(targets))
	}
	untiled := append([]phys.Particle(nil), targets...)
	classic := law.Kernel().WithTile(-1)
	classic.AccumulateIn(untiled, sources, box)
	for _, tile := range []int{1, 16, 0} {
		tiled := append([]phys.Particle(nil), targets...)
		kern := law.Kernel().WithTile(tile)
		kern.AccumulateIn(tiled, sources, box)
		for i := range untiled {
			if tiled[i] != untiled[i] {
				t.Fatalf("tile=%d diverges from the untiled loop at particle %d", tile, i)
			}
		}
	}
}

// TestNegativeTileRejected: validation must fail before any rank
// spawns, mirroring TestNegativeWorkersRejected.
func TestNegativeTileRejected(t *testing.T) {
	pr := defaultParams(4, 2, 1)
	pr.Tile = -1
	if _, _, err := AllPairs(phys.InitUniform(32, pr.Box, 5), pr); err == nil {
		t.Fatal("negative Tile accepted")
	} else if !strings.Contains(err.Error(), "tile") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestTileInvarianceAcrossAlgorithms2D extends the invariance sweep to
// the 2D decompositions (cutoff teams on a plane, midpoint on a 2D
// grid), whose import-region traversals feed the tiled kernels through
// different entry points than the 1D loops.
func TestTileInvarianceAcrossAlgorithms2D(t *testing.T) {
	runCut := func(tile int) ([]phys.Particle, *trace.Report) {
		pr := cutoffParams(18, 2, 2, phys.Reflective)
		pr.Tile = tile
		ps, rep, err := Cutoff(phys.InitLattice(64, pr.Box, 59), pr)
		if err != nil {
			t.Fatalf("cutoff2d tile=%d: %v", tile, err)
		}
		return ps, rep
	}
	runMid := func(tile int) ([]phys.Particle, *trace.Report) {
		pr := cutoffParams(9, 1, 2, phys.Reflective)
		pr.Tile = tile
		ps, rep, err := Midpoint2D(phys.InitLattice(64, pr.Box, 59), pr)
		if err != nil {
			t.Fatalf("midpoint2d tile=%d: %v", tile, err)
		}
		return ps, rep
	}
	for _, alg := range []struct {
		name string
		run  func(tile int) ([]phys.Particle, *trace.Report)
	}{{"cutoff2d", runCut}, {"midpoint2d", runMid}} {
		want, wantRep := alg.run(0)
		for _, tile := range []int{1, 7, 64} {
			got, gotRep := alg.run(tile)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s tile=%d diverges at particle %d", alg.name, tile, i)
				}
			}
			if !sameCommCounts(wantRep, gotRep) {
				t.Errorf("%s tile=%d changed per-phase message/byte counts", alg.name, tile)
			}
		}
	}
}

// ExampleParams_tile documents the knob at the core layer: explicit
// widths and the default are interchangeable in results.
func ExampleParams_tile() {
	box := phys.NewBox(10, 2, phys.Reflective)
	base := Params{P: 4, C: 2, Law: phys.DefaultLaw(), Box: box, DT: 1e-3, Steps: 3}
	tiled := base
	tiled.Tile = 8
	a, _, err := AllPairs(phys.InitUniform(32, box, 9), base)
	if err != nil {
		panic(err)
	}
	b, _, err := AllPairs(phys.InitUniform(32, box, 9), tiled)
	if err != nil {
		panic(err)
	}
	identical := true
	for i := range a {
		if a[i] != b[i] {
			identical = false
		}
	}
	fmt.Println("identical:", identical)
	// Output: identical: true
}
