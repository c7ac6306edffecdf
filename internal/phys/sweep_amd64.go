//go:build amd64 && !purego

package phys

import "math"

// AVX2 sweeps for the two repulsive flavors the timestep loops spend
// their time in: Accumulate without a cutoff (the all-pairs loop) and
// AccumulateIn with one (the cutoff loop). Everything else — Lennard-
// Jones, the cell list, SweepStaged, other architectures, pre-AVX2
// CPUs, `-tags purego` — runs the Go loops, which are also the
// reference these sweeps are tested against (sweep_amd64_test.go).
//
// The sweeps vectorize across targets, not sources. Four consecutive
// targets occupy the four lanes of a YMM register and the sources are
// broadcast one at a time in slice order, so each lane performs, for
// its target, exactly the Go loop's sequence of correctly rounded
// subtract, multiply, add, square root and divide — no contraction, no
// reassociation, no reduction across lanes. (The pipelined open loop
// computes that divide with FMAs; it is the same quotient, see the
// assembly.) The data-dependent branches of the Go loops become lane
// masks whose effect is exact:
//
//   - an equal-ID lane and (AccumulateIn) a beyond-cutoff lane keep
//     their accumulator by blend. The Go loop performs no add there, and
//     adding a masked +0 instead would turn a -0 accumulator into +0;
//   - a lane with r2 == 0 adds an exact +0, as the Go loop does: the
//     and-not clears its product, whatever Inf·0 made of it;
//   - the minimum-image wrap is one conditional down-shift and one
//     conditional up-shift, each the subtraction of a masked l or -l.
//     That is all minImage1 does when both positions lie in the box, so
//     a periodic call with a position outside it (the timestep loops
//     never make one) is handed whole to the Go loop.
//
// Targets beyond the last full group of four run the Go loop. The
// identity holds for finite inputs; NaN payloads are not pinned.

// useAVX2 selects the sweeps below and usePipe, on top of it, the
// pipelined loop of the open sweep. Both are decided once, at start-up,
// from the CPU and the operating system alone.
var useAVX2, usePipe = cpuSweeps(cpuid, xgetbv0)

// cpuSweeps reads the two decisions off CPUID and XCR0. AVX2 needs the
// feature (leaf 7 EBX bit 5), AVX itself and OSXSAVE (leaf 1 ECX bits 28
// and 27) and an OS that saves the YMM state (XCR0 bits 1 and 2). The
// pipelined loop uses FMA (leaf 1 ECX bit 12) and 256-bit EVEX forms —
// mask registers, Y16 and up, VRCP14PD — so AVX-512F and VL (leaf 7 EBX
// bits 16 and 31) with the opmask and ZMM state enabled (XCR0 bits 5-7).
func cpuSweeps(cpuid func(leaf uint32) (eax, ebx, ecx, edx uint32), xcr0 func() uint32) (avx2, pipe bool) {
	if maxLeaf, _, _, _ := cpuid(0); maxLeaf < 7 {
		return false, false
	}
	_, _, c1, _ := cpuid(1)
	if c1&(3<<27) != 3<<27 {
		return false, false // XGETBV would fault
	}
	x := xcr0()
	_, b7, _, _ := cpuid(7)
	avx2 = x&6 == 6 && b7&(1<<5) != 0
	pipe = avx2 && x&0xE0 == 0xE0 && c1&(1<<12) != 0 && b7&(1<<16|1<<31) == 1<<16|1<<31
	return avx2, pipe
}

// sweepChunk bounds the sources of one assembly call. The routines are
// assembly loops the runtime cannot preempt, so an unbounded source
// block would hold off a garbage-collection stop-the-world for its
// whole length; 4096 sources are a few tens of microseconds.
const sweepChunk = 4096

// The pipelined loop takes source runs of pipeMin or more — four blocks,
// its depth — and a strength K whose magnitude lies in [pipeKMin,
// pipeKMax]: with that and the window its guard puts on the divisor,
// every intermediate of its quotient is a normal number.
const (
	pipeMin  = 16
	pipeKMin = 0x1p-500
	pipeKMax = 0x1p+500
)

// lanes4 is the state of one group of four targets, one target per
// lane. It lives on the caller's stack.
type lanes4 struct {
	px, py [4]float64
	fx, fy [4]float64
	// id holds each target's ID in both halves of its quadword, so a
	// doubleword compare against a broadcast source ID fills the lane.
	id [4]uint64
	// same tallies, per lane, the equal-ID sources seen so far.
	same [4]uint64
}

// load fills the lanes from the four targets of g. It is assembly
// because of how the sweeps read the lanes back: a vector load cannot be
// forwarded from scalar stores, it waits for them to reach the cache —
// which they do in program order, behind the whole sweep of the group
// before. Filled that way a group could not start until its predecessor
// had drained (some 35 ns a group, a third of an 8-source sweep).
func (ln *lanes4) load(g []Particle) {
	_ = g[3]
	gatherLanesAVX2(ln, &g[0])
}

func (ln *lanes4) store(g []Particle) {
	for i := range ln.fx {
		g[i].Force.X, g[i].Force.Y = ln.fx[i], ln.fy[i]
	}
}

// identities returns the equal-ID pairs tallied since the lanes were
// zeroed: the pairs the Go loops skip without counting.
func (ln *lanes4) identities() int64 {
	return int64(ln.same[0] + ln.same[1] + ln.same[2] + ln.same[3])
}

// sweepConsts holds the cutoff sweep's loop constants, each already
// spread over the four lanes so the assembly can use them as memory
// operands.
type sweepConsts struct {
	kk, soft2, rc2 [4]float64
	// l and negl are ±the box length; half and nhalf are the ±l/2 of
	// minImage1's tests, per axis. An axis that does not wrap (Y in one
	// dimension) gets ±Inf, which no displacement exceeds.
	l, negl       [4]float64
	halfX, nhalfX [4]float64
	halfY, nhalfY [4]float64
}

func spread(x float64) [4]float64 { return [4]float64{x, x, x, x} }

func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

//go:noescape
func gatherLanesAVX2(ln *lanes4, group *Particle)

// The open sweep takes its two constants as scalars and spreads them
// itself, for the reason load is assembly.
//
//go:noescape
func sweepRepOpenAVX2(ln *lanes4, src *Particle, n int, kk, soft2 float64)

//go:noescape
func sweepInRepCutAVX2(ln *lanes4, src *Particle, n int, c *sweepConsts, periodic bool)

// sweepRepOpenPipeAVX512 is sweepRepOpenAVX2, bit for bit, with the
// sources taken four at a time through a software pipeline whose
// quotient runs on the FMA ports instead of the divider.
//
//go:noescape
func sweepRepOpenPipeAVX512(ln *lanes4, src *Particle, n int, kk, soft2 float64)

// quotientAVX512 is the pipelined loop's quotient stage alone, for the
// tests: q = kk/a, and whether the guard took the divider.
//
//go:noescape
func quotientAVX512(a *[4]float64, kk float64, q *[4]float64) (divider bool)

// sweepRepOpenBlocks is one accumulateRepOpen per block, in order, bit
// for bit and count for count.
func (k *Kernel) sweepRepOpenBlocks(targets []Particle, blocks [][]Particle) int64 {
	return k.sweepRepOpenVia(usePipe, targets, blocks)
}

// sweepRepOpenVia is sweepRepOpenBlocks with the loop named: each group
// of four targets is loaded once, folds every block's sources in list
// order — the sequence the per-block calls would give each target — and
// is stored once. pipe sends the runs it admits through the pipelined
// loop; the others, and all of them without it, take the plain one.
func (k *Kernel) sweepRepOpenVia(pipe bool, targets []Particle, blocks [][]Particle) int64 {
	pipe = pipe && math.Abs(k.k) >= pipeKMin && math.Abs(k.k) <= pipeKMax
	var ln lanes4
	full := len(targets) &^ 3
	for i := 0; i < full; i += 4 {
		g := targets[i : i+4]
		ln.load(g)
		for _, sources := range blocks {
			for lo := 0; lo < len(sources); lo += sweepChunk {
				if n := min(sweepChunk, len(sources)-lo); pipe && n >= pipeMin {
					sweepRepOpenPipeAVX512(&ln, &sources[lo], n, k.k, k.soft2)
				} else {
					sweepRepOpenAVX2(&ln, &sources[lo], n, k.k, k.soft2)
				}
			}
		}
		ln.store(g)
	}
	n := -ln.identities()
	for _, sources := range blocks {
		n += int64(full) * int64(len(sources))
		if full < len(targets) {
			n += k.accumulateRepOpen(targets[full:], sources)
		}
	}
	return n
}

// inBox reports whether every particle lies in [0, l] along the axes a
// periodic box of dim dimensions wraps.
func inBox(ps []Particle, l float64, dim int) bool {
	for i := range ps {
		p := &ps[i].Pos
		if !(p.X >= 0 && p.X <= l) || dim >= 2 && !(p.Y >= 0 && p.Y <= l) {
			return false
		}
	}
	return true
}

// sweepInRepCut is accumulateInRepCut, bit for bit and count for count.
func (k *Kernel) sweepInRepCut(targets, sources []Particle, box Box) int64 {
	c := sweepConsts{kk: spread(k.k), soft2: spread(k.soft2), rc2: spread(k.rc2)}
	periodic := box.Boundary == Periodic
	if periodic {
		// Two positions in [0, l] are at most l apart, and a displacement
		// in [-l, l] needs at most the one shift the assembly applies.
		if !inBox(targets, box.L, box.Dim) || !inBox(sources, box.L, box.Dim) {
			return k.accumulateInRepCut(targets, sources, box)
		}
		inf := math.Inf(1)
		c.l, c.negl = spread(box.L), spread(-box.L)
		c.halfX, c.nhalfX = spread(box.L/2), spread(-box.L/2)
		c.halfY, c.nhalfY = spread(inf), spread(-inf)
		if box.Dim >= 2 {
			c.halfY, c.nhalfY = c.halfX, c.nhalfX
		}
	}
	var ln lanes4
	full := len(targets) &^ 3
	for i := 0; i < full; i += 4 {
		g := targets[i : i+4]
		ln.load(g)
		for lo := 0; lo < len(sources); lo += sweepChunk {
			sweepInRepCutAVX2(&ln, &sources[lo], min(sweepChunk, len(sources)-lo), &c, periodic)
		}
		ln.store(g)
	}
	n := int64(full)*int64(len(sources)) - ln.identities()
	if full < len(targets) {
		// The Go loop stages every source tile before it looks at a target.
		n += k.accumulateInRepCut(targets[full:], sources, box)
	}
	return n
}
