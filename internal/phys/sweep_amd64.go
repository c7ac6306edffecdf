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
// subtract, multiply, add, square root and divide — no FMA, no
// reassociation, no reduction across lanes. The data-dependent branches
// of the Go loops become lane masks whose effect is exact:
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

// useAVX2 selects the sweeps below. It is decided once, at start-up,
// from the CPU and the operating system alone.
var useAVX2 = cpuHasAVX2()

// sweepChunk bounds the sources of one assembly call. The routines are
// NOSPLIT loops the runtime cannot preempt, so an unbounded source
// block would hold off a garbage-collection stop-the-world for its
// whole length; 4096 sources are a few tens of microseconds.
const sweepChunk = 4096

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

func cpuHasAVX2() bool

//go:noescape
func gatherLanesAVX2(ln *lanes4, group *Particle)

// The open sweep takes its two constants as scalars and spreads them
// itself, for the reason load is assembly.
//
//go:noescape
func sweepRepOpenAVX2(ln *lanes4, src *Particle, n int, kk, soft2 float64)

//go:noescape
func sweepInRepCutAVX2(ln *lanes4, src *Particle, n int, c *sweepConsts, periodic bool)

// sweepRepOpen is accumulateRepOpen, bit for bit and count for count.
func (k *Kernel) sweepRepOpen(targets, sources []Particle) int64 {
	return k.sweepRepOpenBlocks(targets, [][]Particle{sources})
}

// sweepRepOpenBlocks is one accumulateRepOpen per block, in order, bit
// for bit and count for count: each group of four targets is loaded
// once, folds every block's sources in list order — the sequence the
// per-block calls would give each target — and is stored once.
func (k *Kernel) sweepRepOpenBlocks(targets []Particle, blocks [][]Particle) int64 {
	var ln lanes4
	full := len(targets) &^ 3
	for i := 0; i < full; i += 4 {
		g := targets[i : i+4]
		ln.load(g)
		for _, sources := range blocks {
			for lo := 0; lo < len(sources); lo += sweepChunk {
				sweepRepOpenAVX2(&ln, &sources[lo], min(sweepChunk, len(sources)-lo), k.k, k.soft2)
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
	return n + k.accumulateInRepCut(targets[full:], sources, box)
}
