package phys

import (
	"time"
)

// Pool fans one rank's force accumulation out over spare cores: a batch
// tiles the targets of a Kernel.AccumulateIn/AccumulateBlocks call into one contiguous block per worker, and every worker
// accumulates into its own disjoint block. Because each kernel loop
// writes only the targets it iterates — sources are read-only — the
// tiles never share a force accumulator, need no atomics, and each
// target sees exactly the source order of the unpooled call. The result is therefore bitwise-identical for every worker
// count, which is the contract the parallel algorithms' determinism
// tests lean on.
//
// A Pool belongs to one owning goroutine (the rank that constructed
// it). Workers are persistent: NewPool spawns nw−1 goroutines that park
// on a wake channel, and the owner itself executes tile 0, so a batch
// costs two channel operations per extra worker and nothing else. All
// batch state lives in slices allocated at construction — a steady-state
// batch allocates nothing (guarded by TestPoolAllocs).
//
// The nil *Pool is the valid single-worker pool: every method runs its
// batch inline on the caller and records no spans, so call sites need no
// branching. NewPool returns nil for workers <= 1.
type Pool struct {
	nw int

	// Batch descriptor: written by the owner before the wake signals,
	// read by workers after them (the channel pair orders the accesses).
	mode    uint8
	kern    Kernel
	targets []Particle
	sources []Particle
	blocks  [][]Particle
	box     Box

	starts []int   // tile bounds, len nw+1: worker w owns [starts[w], starts[w+1])
	pairs  []int64 // per-worker pair evaluations of the last batch
	last   []int64 // per-worker busy nanoseconds of the last batch
	busy   []int64 // per-worker cumulative busy nanoseconds

	wake   []chan struct{} // per-worker wake signals (index 0 is the owner, unused)
	done   chan struct{}
	closed bool
}

// Batch operation selectors.
const (
	opAccumulateIn uint8 = iota
	opAccumulateBlocks
)

// NewPool returns a pool of the given worker count, spawning workers−1
// persistent goroutines, or nil (the inline single-worker pool) when
// workers <= 1. Callers must Close a non-nil pool to release the
// goroutines.
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	p := &Pool{
		nw:     workers,
		starts: make([]int, workers+1),
		pairs:  make([]int64, workers),
		last:   make([]int64, workers),
		busy:   make([]int64, workers),
		wake:   make([]chan struct{}, workers),
		done:   make(chan struct{}, workers),
	}
	for w := 1; w < workers; w++ {
		p.wake[w] = make(chan struct{}, 1)
		go func(w int) {
			for range p.wake[w] {
				p.exec(w)
				p.done <- struct{}{}
			}
		}(w)
	}
	return p
}

// Workers returns the worker count (1 for the nil inline pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.nw
}

// Close releases the worker goroutines. Further batches on a closed
// pool panic; Close is idempotent and a no-op on the nil pool.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for w := 1; w < p.nw; w++ {
		close(p.wake[w])
	}
}

// exec runs worker w's tile of the current batch and records its pair
// count and busy time.
func (p *Pool) exec(w int) {
	t0 := time.Now()
	lo, hi := p.starts[w], p.starts[w+1]
	var pairs int64
	switch p.mode {
	case opAccumulateIn:
		pairs = p.kern.AccumulateIn(p.targets[lo:hi], p.sources, p.box)
	case opAccumulateBlocks:
		pairs = p.kern.AccumulateBlocks(p.targets[lo:hi], p.blocks, p.box)
	}
	p.pairs[w] = pairs
	ns := time.Since(t0).Nanoseconds()
	p.last[w] = ns
	p.busy[w] += ns
}

// dispatch partitions [0, n) into contiguous tiles, wakes the workers,
// runs tile 0 on the owner, waits for the batch to drain, and returns
// the summed pair count. Tile bounds follow the same even block
// partition for every worker count, so which worker runs a tile never
// affects which targets share one.
func (p *Pool) dispatch(n int) int64 {
	for t := 0; t <= p.nw; t++ {
		p.starts[t] = t * n / p.nw
	}
	for w := 1; w < p.nw; w++ {
		p.wake[w] <- struct{}{}
	}
	p.exec(0)
	for w := 1; w < p.nw; w++ {
		<-p.done
	}
	var total int64
	for w := 0; w < p.nw; w++ {
		total += p.pairs[w]
	}
	return total
}

// Accumulate is AccumulateIn under Box{}, the plain metric.
func (p *Pool) Accumulate(k Kernel, targets, sources []Particle) int64 {
	return p.AccumulateIn(k, targets, sources, Box{})
}

// AccumulateIn is Kernel.AccumulateIn with the targets tiled across the
// pool. Bitwise-identical to k.AccumulateIn(targets, sources, box) for
// every worker count; returns the same pair-evaluation count.
func (p *Pool) AccumulateIn(k Kernel, targets, sources []Particle, box Box) int64 {
	if p == nil {
		return k.AccumulateIn(targets, sources, box)
	}
	p.mode, p.kern, p.targets, p.sources, p.box = opAccumulateIn, k, targets, sources, box
	total := p.dispatch(len(targets))
	p.targets, p.sources = nil, nil
	return total
}

// AccumulateBlocks is Kernel.AccumulateBlocks with the targets tiled
// across the pool: one dispatch for the whole list, not one per block.
// Bitwise-identical to one AccumulateIn per block for every worker
// count; returns the same pair-evaluation count.
func (p *Pool) AccumulateBlocks(k Kernel, targets []Particle, blocks [][]Particle, box Box) int64 {
	if p == nil {
		return k.AccumulateBlocks(targets, blocks, box)
	}
	p.mode, p.kern, p.targets, p.blocks, p.box = opAccumulateBlocks, k, targets, blocks, box
	total := p.dispatch(len(targets))
	p.targets, p.blocks = nil, nil
	return total
}

// AccumulateSelf is Kernel.AccumulateSelf. The inline pool makes that
// call; a wider pool tiles AccumulateIn(ps, ps, box) instead, whose
// tiles write only their own targets — a reaction would cross them.
// Bitwise-identical either way, with the same pair-evaluation count.
func (p *Pool) AccumulateSelf(k Kernel, ps []Particle, box Box) int64 {
	if p == nil {
		return k.AccumulateSelf(ps, box)
	}
	return p.AccumulateIn(k, ps, ps, box)
}

// LastSpansNs returns the per-worker busy nanoseconds of the most
// recent batch. The slice is pool-owned and overwritten by the next
// batch; nil for the inline pool.
func (p *Pool) LastSpansNs() []int64 {
	if p == nil {
		return nil
	}
	return p.last
}

// BusyNs returns cumulative per-worker busy nanoseconds since the pool
// was built. The slice is pool-owned; read it only between batches.
// Callers diff successive readings to attribute busy time to steps.
func (p *Pool) BusyNs() []int64 {
	if p == nil {
		return nil
	}
	return p.busy
}
