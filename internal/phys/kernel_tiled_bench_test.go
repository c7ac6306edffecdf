package phys

import "testing"

// Tile-grid microbenchmarks over the same batch shape as cmd/bench's
// tile-kernel grid (256 targets, 512 sources, periodic 2D box, cutoff
// 0.9), so kernel-loop changes can be timed here without a full bench
// run:
//
//	go test -run NONE -bench Tiled -benchtime 300x ./internal/phys/
//
// The /untiled variants time the classic loops the tiled paths must
// beat; cmd/bench records the authoritative grid in BENCH_PR8.json. Only
// the flavors that compact are tiled. Unless KernelImpl is "portable" the
// RepCutIn rows all time the vector sweep, which ignores the tile knob:
// add -tags purego to time the compaction loop (BenchmarkSweep compares
// the two directly).

func tileBenchBatch() ([]Particle, []Particle, Box) {
	box := NewBox(3, 2, Periodic)
	targets := InitUniform(256, box, 1)
	sources := append(append([]Particle(nil), targets...), InitUniform(256, box, 2)...)
	return targets, sources, box
}

func benchAccumulateIn(b *testing.B, law Law, tile int) {
	targets, sources, box := tileBenchBatch()
	kern := law.Kernel().WithTile(tile)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.AccumulateIn(targets, sources, box)
	}
}

func BenchmarkTiledRepCutIn(b *testing.B) {
	law := Law{Kind: Repulsive, K: 1.3, Softening: 1e-3, Cutoff: 0.9}
	b.Run("untiled", func(b *testing.B) { benchAccumulateIn(b, law, -1) })
	b.Run("t32", func(b *testing.B) { benchAccumulateIn(b, law, 32) })
	b.Run("t64", func(b *testing.B) { benchAccumulateIn(b, law, 64) })
}

func BenchmarkTiledLJCutIn(b *testing.B) {
	law := LJLaw(0.7, 0.4).WithCutoff(0.9)
	b.Run("untiled", func(b *testing.B) { benchAccumulateIn(b, law, -1) })
	b.Run("t32", func(b *testing.B) { benchAccumulateIn(b, law, 32) })
	b.Run("t64", func(b *testing.B) { benchAccumulateIn(b, law, 64) })
}

func BenchmarkTiledCellList(b *testing.B) {
	box := NewBox(3, 2, Periodic)
	ps := InitUniform(1024, box, 3)
	law := LJLaw(0.7, 0.4).WithCutoff(0.9)
	run := func(b *testing.B, tile int) {
		work := append([]Particle(nil), ps...)
		cl := NewCellList(work, 0.9, box)
		kern := law.Kernel().WithTile(tile)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cl.ForcesKernel(work, kern, nil)
		}
	}
	b.Run("untiled", func(b *testing.B) { run(b, -1) })
	b.Run("t32", func(b *testing.B) { run(b, 32) })
	b.Run("t64", func(b *testing.B) { run(b, 64) })
}
