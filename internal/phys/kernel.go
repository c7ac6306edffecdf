package phys

import "math"

// Kernel is a Law compiled for the inner loop: the potential kind, the
// cutoff test, and the softening/strength constants are resolved once,
// when the kernel is built, instead of once per pair.
//
// The law decides the metric. An open law uses the plain displacement
// and adds for every counted pair; a cutoff law uses the box's metric
// (the minimum image in a periodic box) and counts a beyond-cutoff pair
// without adding anything — the semantics of BruteForce and
// BruteForceCutoff, the serial truths every algorithm is verified
// against. So there is one entry point, AccumulateIn, and Accumulate is
// AccumulateIn under Box{}, which measures plainly. It dispatches on the
// law to one of three Go loops: accumulateRepOpen and accumulateLJOpen
// for the open laws, and for a cutoff law of either kind the compaction
// loop (accumulateCut, kernel_tiled.go), which may drop the pairs it
// skips and so gates, compacts and sweeps its sources a scratch-full at
// a time. On a CPU with AVX2 the repulsive law takes a vector sweep
// instead, and with AVX-512VL and FMA a pipelined one, the cutoff law's
// behind a gate that discards the sources out of every lane's reach (see
// sweep_amd64.go; Impl says which). Every choice is bitwise-identical.
//
// The loops are bitwise-identical to the generic Law.Pair-per-pair path
// (AccumulateGeneric): they perform the same floating-point operations
// in the same order, down to the exact zero the generic path adds for a
// coincident pair. That is asserted by TestKernelMatchesGeneric* in
// kernel_test.go, so the fast path cannot drift from the reference the
// parallel algorithms are verified against. For the same reason only
// single-operation constants are hoisted (σ² = σ·σ, r_c² = r_c·r_c,
// ε_s² = ε_s·ε_s, 24ε): folding σ⁶ or 1/r_c² would reassociate the
// arithmetic and change low-order bits.
//
// A Kernel is a plain value: building one allocates nothing, and the
// loops themselves are allocation-free (guarded by TestKernelAllocs).
type Kernel struct {
	lj      bool // Lennard-Jones; false = repulsive (the Potential default)
	hasCut  bool
	k       float64 // repulsive strength K
	e24     float64 // 24ε (the LJ force prefactor as the generic path groups it)
	sig2    float64 // σ²
	soft2   float64 // softening²
	rc, rc2 float64 // cutoff, cutoff²
}

// Kernel compiles the law into its specialized inner-loop form. The
// zero Law compiles to a valid (if dull) kernel; unknown potential kinds
// fall back to repulsive, mirroring Law.pairVec's default case.
func (l Law) Kernel() Kernel {
	return Kernel{
		lj:     l.Kind == LennardJones,
		hasCut: l.Cutoff > 0,
		k:      l.K,
		e24:    24 * l.Epsilon,
		sig2:   l.Sigma * l.Sigma,
		soft2:  l.Softening * l.Softening,
		rc:     l.Cutoff,
		rc2:    l.Cutoff * l.Cutoff,
	}
}

// KernelImpl names the vector sweeps this host has for the repulsive
// law: "avx2", "avx512vl" for the same with source runs of 16 or more —
// of the open sweep, and of what the cutoff sweep's gate lets through —
// on the pipelined loops, or "portable" for none. It is a property of
// the CPU and the build; what a given kernel runs is Impl.
func KernelImpl() string {
	switch {
	case usePipe:
		return "avx512vl"
	case useAVX2:
		return "avx2"
	}
	return "portable"
}

// Impl names the implementation k's entry points run: KernelImpl for the
// repulsive law, open or cut off, and "portable" — the Go loops — for
// Lennard-Jones. Timings are only comparable between runs that agree on
// it; results are identical whichever it is.
func (k Kernel) Impl() string {
	if k.lj {
		return "portable"
	}
	return KernelImpl()
}

// Accumulate is AccumulateIn under Box{}, the plain metric.
func (k *Kernel) Accumulate(targets, sources []Particle) int64 {
	return k.AccumulateIn(targets, sources, Box{})
}

// AccumulateIn adds to every target's force accumulator the force from
// every source, skipping (and not counting) equal-ID pairs, and returns
// the number of pair evaluations performed. A cutoff law measures under
// box and counts a beyond-cutoff pair without adding for it; an open law
// ignores box. The dispatch happens once per call.
func (k *Kernel) AccumulateIn(targets, sources []Particle, box Box) int64 {
	switch {
	case k.hasCut && !k.lj && useAVX2:
		return k.sweepInRepCut(targets, sources, box)
	case k.hasCut:
		return k.accumulateCut(targets, sources, box)
	case k.lj:
		return k.accumulateLJOpen(targets, sources)
	case useAVX2:
		return k.sweepRepOpenBlocks(targets, [][]Particle{sources})
	default:
		return k.accumulateRepOpen(targets, sources)
	}
}

// AccumulateBlocks is one AccumulateIn per block, in list order, bit for
// bit and count for count: every target folds the sources of block 0,
// then those of block 1, and so on, and the result is the sum of the
// calls' pair counts. It exists for callers holding many short source
// blocks (the all-pairs loop gathers its visiting blocks, see
// internal/core): the open law's AVX2 sweep keeps each group of targets
// in its lanes across the whole list instead of loading, draining and
// storing it once per block. Every other case makes the calls.
func (k *Kernel) AccumulateBlocks(targets []Particle, blocks [][]Particle, box Box) int64 {
	if useAVX2 && !k.lj && !k.hasCut {
		return k.sweepRepOpenBlocks(targets, blocks)
	}
	var n int64
	for _, sources := range blocks {
		n += k.AccumulateIn(targets, sources, box)
	}
	return n
}

// AccumulateSelf is AccumulateIn(ps, ps, box) — every particle of ps
// against every other — bit for bit and returning the same count, n² − n
// for distinct IDs, the beyond-cutoff pairs included. Where the repulsive
// law runs the pipelined sweep, it evaluates each unordered pair once and
// adds the reaction to the other particle (Newton's third law;
// sweep_amd64.go says why that is exact): the open law always, a cutoff
// law on a block that needs no wrap and spans at most the cutoff along
// each axis. An open law ignores box. Every other case makes the
// AccumulateIn call.
func (k *Kernel) AccumulateSelf(ps []Particle, box Box) int64 {
	switch {
	case !usePipe || k.lj:
		return k.AccumulateIn(ps, ps, box)
	case k.hasCut:
		return k.sweepRepCutSelf(ps, box)
	}
	return k.sweepRepOpenSelf(ps)
}

// The two open loops mirror the generic path operation for operation.
// `fx += 0` statements reproduce the generic path's f.Add(vec.Vec2{})
// for a coincident pair, whose force is exactly zero: adding +0
// normalizes a -0 accumulator, so eliding the add would not be
// bitwise-faithful.
//
// The repulsive loop processes two sources per iteration with both lane
// weights computed before either is accumulated. This is not a generic
// unroll-for-speed: SQRTSD writes only the low lane of its destination
// register, so a one-wide loop carries a false dependency from each
// iteration's sqrt to the previous iteration's, serializing the loop at
// sqrt+mul latency (measured ~1.5× slower than the call-heavy generic
// path, which breaks the chain by reloading registers per call). Keeping
// both lane weights live forces distinct sqrt destinations. Accumulation
// stays strictly in source order — lane 0 then lane 1 — so the result is
// still bitwise-identical to the one-at-a-time reference. The LJ loop
// has no sqrt (DIVSD's destination is a true input, rewritten fresh
// every iteration) and stays one-wide. (One open loop for both laws was
// measured for ISSUE 25: Lennard-Jones 14 % slower, and one register
// allocation of it took the repulsive loop from 3.6 to 8.0 ns/pair.)
//
// Each lane tracks a single `ok` flag; the rare exact-zero add is
// re-derived in the accumulation step (from the ID test) instead
// of being carried in a second flag — a second per-lane boolean makes
// the compiler emit branchless SETcc sequences that roughly double the
// loop's critical path (measured).

func (k *Kernel) accumulateRepOpen(targets, sources []Particle) int64 {
	kk, soft2 := k.k, k.soft2
	var n int64
	for i := range targets {
		t := &targets[i]
		fx, fy := t.Force.X, t.Force.Y
		px, py, id := t.Pos.X, t.Pos.Y, t.ID
		j := 0
		for ; j+1 < len(sources); j += 2 {
			s0, s1 := &sources[j], &sources[j+1]
			var w0, w1, dx0, dy0, dx1, dy1 float64
			ok0, ok1 := false, false
			if s0.ID != id {
				n++
				dx0 = px - s0.Pos.X
				dy0 = py - s0.Pos.Y
				r2 := dx0*dx0 + dy0*dy0 + soft2
				if r2 != 0 {
					w0 = kk / (r2 * math.Sqrt(r2))
					ok0 = true
				}
			}
			if s1.ID != id {
				n++
				dx1 = px - s1.Pos.X
				dy1 = py - s1.Pos.Y
				r2 := dx1*dx1 + dy1*dy1 + soft2
				if r2 != 0 {
					w1 = kk / (r2 * math.Sqrt(r2))
					ok1 = true
				}
			}
			if ok0 {
				fx += w0 * dx0
				fy += w0 * dy0
			} else if s0.ID != id {
				fx += 0
				fy += 0
			}
			if ok1 {
				fx += w1 * dx1
				fy += w1 * dy1
			} else if s1.ID != id {
				fx += 0
				fy += 0
			}
		}
		for ; j < len(sources); j++ {
			s := &sources[j]
			if s.ID == id {
				continue
			}
			n++
			dx := px - s.Pos.X
			dy := py - s.Pos.Y
			r2 := dx*dx + dy*dy + soft2
			if r2 == 0 {
				fx += 0
				fy += 0
				continue
			}
			w := kk / (r2 * math.Sqrt(r2))
			fx += w * dx
			fy += w * dy
		}
		t.Force.X, t.Force.Y = fx, fy
	}
	return n
}

func (k *Kernel) accumulateLJOpen(targets, sources []Particle) int64 {
	e24, sig2, soft2 := k.e24, k.sig2, k.soft2
	var n int64
	for i := range targets {
		t := &targets[i]
		fx, fy := t.Force.X, t.Force.Y
		px, py, id := t.Pos.X, t.Pos.Y, t.ID
		for j := range sources {
			s := &sources[j]
			if s.ID == id {
				continue
			}
			n++
			dx := px - s.Pos.X
			dy := py - s.Pos.Y
			r2 := dx*dx + dy*dy + soft2
			if r2 == 0 {
				fx += 0
				fy += 0
				continue
			}
			s2 := sig2 / r2
			s6 := s2 * s2 * s2
			s12 := s6 * s6
			w := e24 * (2*s12 - s6) / r2
			fx += w * dx
			fy += w * dy
		}
		t.Force.X, t.Force.Y = fx, fy
	}
	return n
}
