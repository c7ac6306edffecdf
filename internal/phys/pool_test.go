package phys

import (
	"testing"
)

// poolTestSets builds a target/source pair with distinct IDs and a mix
// of interacting, beyond-cutoff and near-coincident pairs.
func poolTestSets(nt, ns int) (targets, sources []Particle, box Box) {
	box = NewBox(3, 2, Periodic)
	targets = InitUniform(nt, box, 41)
	sources = InitUniform(ns, box, 42)
	for i := range sources {
		sources[i].ID += uint32(nt)
	}
	return targets, sources, box
}

// TestPoolAccumulateBitwiseInvariance: tiling the targets across any
// worker count must reproduce the inline kernel result bit for bit —
// the pool never splits a target's source sum, only the target set.
func TestPoolAccumulateBitwiseInvariance(t *testing.T) {
	laws := []Law{
		{Kind: Repulsive, K: 1.3, Softening: 1e-3},
		{Kind: Repulsive, K: 1.3, Softening: 1e-3, Cutoff: 0.9},
		LJLaw(0.7, 0.4),
		LJLaw(0.7, 0.4).WithCutoff(0.9),
	}
	// 37 targets: a size the even block partition cannot split evenly,
	// so uneven tail tiles are exercised.
	targets, sources, box := poolTestSets(37, 64)
	for _, law := range laws {
		kern := law.Kernel()
		want := append([]Particle(nil), targets...)
		wantPairs := kern.Accumulate(want, sources)
		wantIn := append([]Particle(nil), targets...)
		wantInPairs := kern.AccumulateIn(wantIn, sources, box)
		// The blocks form stands for one AccumulateIn per block; cut
		// anywhere, the blocks fold into each target in source order.
		blocks := [][]Particle{sources[:9], nil, sources[9:10], sources[10:]}
		// The diagonal visit: the symmetric sweep inline, the tiled
		// plain one on wider pools, under the periodic box. The second
		// block is the first squeezed into a quarter of the box, so that
		// it spans less than the cutoff and a cutoff law takes the
		// symmetric sweep too.
		squeezed := append([]Particle(nil), targets...)
		for i := range squeezed {
			squeezed[i].Pos = squeezed[i].Pos.Scale(0.25)
		}
		selves := [][]Particle{targets, squeezed}
		for _, w := range []int{1, 2, 3, 4, 8} {
			pool := NewPool(w) // nil, the inline pool, for one worker
			got := append([]Particle(nil), targets...)
			if pairs := pool.Accumulate(kern, got, sources); pairs != wantPairs {
				t.Errorf("law %+v w=%d: pair count %d, want %d", law, w, pairs, wantPairs)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("law %+v w=%d: Accumulate target %d = %+v, want %+v", law, w, i, got[i], want[i])
				}
			}
			gotBlocks := append([]Particle(nil), targets...)
			if pairs := pool.AccumulateBlocks(kern, gotBlocks, blocks, box); pairs != wantInPairs {
				t.Errorf("law %+v w=%d: AccumulateBlocks pair count %d, want %d", law, w, pairs, wantInPairs)
			}
			for i := range gotBlocks {
				if gotBlocks[i] != wantIn[i] {
					t.Errorf("law %+v w=%d: AccumulateBlocks target %d = %+v, want %+v", law, w, i, gotBlocks[i], wantIn[i])
				}
			}
			gotIn := append([]Particle(nil), targets...)
			if pairs := pool.AccumulateIn(kern, gotIn, sources, box); pairs != wantInPairs {
				t.Errorf("law %+v w=%d: AccumulateIn pair count %d, want %d", law, w, pairs, wantInPairs)
			}
			for i := range gotIn {
				if gotIn[i] != wantIn[i] {
					t.Errorf("law %+v w=%d: AccumulateIn target %d diverges", law, w, i)
				}
			}
			for b, self := range selves {
				wantSelf := append([]Particle(nil), self...)
				wantSelfPairs := kern.AccumulateIn(wantSelf, append([]Particle(nil), self...), box)
				gotSelf := append([]Particle(nil), self...)
				if pairs := pool.AccumulateSelf(kern, gotSelf, box); pairs != wantSelfPairs {
					t.Errorf("law %+v w=%d block %d: AccumulateSelf pair count %d, want %d", law, w, b, pairs, wantSelfPairs)
				}
				for i := range gotSelf {
					if gotSelf[i] != wantSelf[i] {
						t.Errorf("law %+v w=%d block %d: AccumulateSelf target %d = %+v, want %+v", law, w, b, i, gotSelf[i], wantSelf[i])
					}
				}
			}
			pool.Close()
		}
	}
}

// TestPoolRun checks how a batch runs on the pool: the tiles cover
// [0, n) exactly once in disjoint contiguous ranges, the tiles' pair
// counts sum to the inline kernel's, and the partition is a pure
// function of (n, workers).
func TestPoolRun(t *testing.T) {
	kern := DefaultLaw().Kernel()
	for _, w := range []int{2, 3, 7} {
		pool := NewPool(w)
		for _, n := range []int{0, 1, 5, 64, 97} {
			targets, sources, box := poolTestSets(n, 9)
			want := kern.AccumulateIn(append([]Particle(nil), targets...), sources, box)
			if got := pool.AccumulateIn(kern, targets, sources, box); got != want {
				t.Errorf("w=%d n=%d: pool pair count %d, want %d", w, n, got, want)
			}
			if pool.starts[0] != 0 || pool.starts[w] != n {
				t.Errorf("w=%d n=%d: tiles span [%d,%d)", w, n, pool.starts[0], pool.starts[w])
			}
			for k := 0; k < w; k++ {
				if lo, hi := pool.starts[k], pool.starts[k+1]; lo > hi || lo != k*n/w {
					t.Errorf("w=%d n=%d: tile %d is [%d,%d), want it to start at %d", w, n, k, lo, hi, k*n/w)
				}
			}
		}
		pool.Close()
	}
}

// TestPoolNilAndLifecycle pins the nil-pool contract and Close
// semantics.
func TestPoolNilAndLifecycle(t *testing.T) {
	if p := NewPool(0); p != nil {
		t.Error("NewPool(0) should be the nil inline pool")
	}
	if p := NewPool(1); p != nil {
		t.Error("NewPool(1) should be the nil inline pool")
	}
	var nilPool *Pool
	if nilPool.Workers() != 1 {
		t.Errorf("nil pool Workers = %d, want 1", nilPool.Workers())
	}
	if nilPool.LastSpansNs() != nil || nilPool.BusyNs() != nil {
		t.Error("nil pool should report no spans")
	}
	nilPool.Close() // must not panic

	pool := NewPool(3)
	if pool.Workers() != 3 {
		t.Errorf("Workers = %d, want 3", pool.Workers())
	}
	targets, sources, box := poolTestSets(10, 4)
	pool.AccumulateIn(DefaultLaw().Kernel(), targets, sources, box)
	if got := len(pool.LastSpansNs()); got != 3 {
		t.Errorf("LastSpansNs lanes = %d, want 3", got)
	}
	busy := pool.BusyNs()
	if len(busy) != 3 {
		t.Errorf("BusyNs lanes = %d, want 3", len(busy))
	}
	pool.Close()
	pool.Close() // idempotent
}

// TestPoolBusyAccumulates: cumulative busy counters only grow, and the
// owner lane (worker 0) records real time.
func TestPoolBusyAccumulates(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	targets, sources, _ := poolTestSets(64, 64)
	kern := LJLaw(0.7, 0.4).Kernel()
	pool.Accumulate(kern, targets, sources)
	first := append([]int64(nil), pool.BusyNs()...)
	pool.Accumulate(kern, targets, sources)
	second := pool.BusyNs()
	for w := range second {
		if second[w] < first[w] {
			t.Errorf("worker %d busy went backwards: %d then %d", w, first[w], second[w])
		}
	}
	if second[0] == 0 {
		t.Error("owner lane recorded no busy time across two batches")
	}
}

// TestPoolAllocs: a steady-state pool batch allocates nothing — the
// descriptor, tile bounds and span buffers are all retained, the kernel
// is stored by value, and wake/done carry empty structs.
func TestPoolAllocs(t *testing.T) {
	targets, sources, box := poolTestSets(128, 128)
	kern := LJLaw(0.7, 0.4).WithCutoff(0.9).Kernel()
	pool := NewPool(4)
	defer pool.Close()

	if got := testing.AllocsPerRun(20, func() {
		pool.Accumulate(kern, targets, sources)
	}); got != 0 {
		t.Errorf("pooled Accumulate: %v allocs/op, want 0", got)
	}
	blocks := [][]Particle{sources[:40], sources[40:]}
	if got := testing.AllocsPerRun(20, func() {
		pool.AccumulateBlocks(kern, targets, blocks, box)
	}); got != 0 {
		t.Errorf("pooled AccumulateBlocks: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		pool.AccumulateIn(kern, targets, sources, box)
	}); got != 0 {
		t.Errorf("pooled AccumulateIn: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		pool.AccumulateSelf(kern, targets, box)
	}); got != 0 {
		t.Errorf("pooled AccumulateSelf: %v allocs/op, want 0", got)
	}
}
