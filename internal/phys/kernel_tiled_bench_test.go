package phys

import "testing"

// Microbenchmarks of the two compaction loops on one batch shape (256
// targets, 512 sources of which 256 share the targets' IDs, periodic 2D
// box, cutoff 0.9), so a change to the gate or the sweeps can be timed
// without a full benchmark run:
//
//	go test -run NONE -bench Tiled -benchtime 300x ./internal/phys/
//
// Unless Kernel.ImplIn is "portable" the RepCutIn row times the vector
// sweep: add -tags purego to time the Go loop (BenchmarkSweep compares
// the two directly).

func benchAccumulateIn(b *testing.B, law Law) {
	box := NewBox(3, 2, Periodic)
	targets := InitUniform(256, box, 1)
	sources := append(append([]Particle(nil), targets...), InitUniform(256, box, 2)...)
	kern := law.Kernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.AccumulateIn(targets, sources, box)
	}
}

func BenchmarkTiledRepCutIn(b *testing.B) {
	benchAccumulateIn(b, Law{Kind: Repulsive, K: 1.3, Softening: 1e-3, Cutoff: 0.9})
}

func BenchmarkTiledLJCutIn(b *testing.B) {
	benchAccumulateIn(b, LJLaw(0.7, 0.4).WithCutoff(0.9))
}
