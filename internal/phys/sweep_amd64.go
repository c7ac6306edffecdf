//go:build amd64 && !purego

package phys

import (
	"math"

	"repro/internal/vec"
)

// AVX2 sweeps for the repulsive law, one per metric the law can pick
// (kernel.go): the open sweep, which all-pairs loops spend their time
// in, and the cutoff sweep, the cutoff loop's (or the all-pairs loop's
// with a cutoff law; under Box{} it runs without the wrap). Lennard-
// Jones, SweepStaged, other architectures, pre-AVX2 CPUs and
// `-tags purego` run the Go loops, which are also the
// reference these sweeps are tested against (sweep_amd64_test.go).
//
// The sweeps vectorize across targets, not sources. Four consecutive
// targets occupy the four lanes of a YMM register and the sources are
// broadcast one at a time in slice order, so each lane performs, for
// its target, exactly the Go loop's sequence of correctly rounded
// subtract, multiply, add, square root and divide — no contraction, no
// reassociation, no reduction across lanes. (The pipelined loops
// compute that divide with FMAs; it is the same quotient, see the
// assembly.) The data-dependent branches of the Go loops become lane
// masks whose effect is exact:
//
//   - an equal-ID lane and (a cutoff law) a beyond-cutoff lane keep
//     their accumulator, by blend or by a merging add. The Go loop
//     performs no add there, and adding a masked +0 instead would turn a
//     -0 accumulator into +0;
//   - a lane with r2 == 0 adds an exact +0, as the Go loop does: the
//     and-not clears its product, whatever Inf·0 made of it;
//   - the minimum-image wrap is one conditional down-shift and one
//     conditional up-shift, each the subtraction of a masked l or -l.
//     That is all minImage1 does when both positions lie in the box, so
//     a periodic call with a position outside it (the timestep loops
//     never make one) is handed whole to the Go loop — and it does
//     nothing at all when no target is further than half the box from
//     any source, which the extents of the two blocks tell (wraps): such
//     a call runs the loop without the wrap.
//
// With AVX-512VL the cutoff sweep does not walk a group of lanes past
// every source. The sources are staged once per call as a structure of
// arrays (cutStage), and per group a gate vectorized the other way —
// eight sources to a 512-bit register, against each of the four targets
// in turn — computes every pair's displacement and squared distance with
// the lane loop's own rounded operations and drops the sources that lie
// beyond the cutoff of all four targets and carry none of their IDs:
// the ones for which the lane loop would do nothing. The survivors, in
// source order, go through the pipelined loop, which masks each lane by
// the same two tests. So a lane sees the sources that concern it in the
// order, and with the arithmetic, of the plain loop.
//
// The one to three targets behind the last group of four are swept as a
// group of their own, padded with copies of the first (groups4). The
// identity holds for finite inputs; NaN payloads are not pinned.
//
// A block swept against itself (Kernel.AccumulateSelf: the all-pairs
// leader's visit to its own team's block, and a cutoff rank's to its
// own team's) takes, on the pipelined loop, a symmetric sweep that
// evaluates each unordered pair once (sweepSelf): stage D of the
// pipeline also transposes the four lanes' products with each source's
// reverse displacement and adds them, in lane order, to the sources' own
// accumulators. Under a cutoff, stage D masks the reactions as it masks
// the adds, and the sweep runs only on a block no wider than the cutoff
// that needs no wrap (selfDense); it has no gate. The sequence of adds
// each particle receives is the plain sweep's, so this too is bit for
// bit.

// useAVX2 selects the sweeps below and usePipe, on top of it, the
// pipelined loops of both. Both are decided once, at start-up, from the
// CPU and the operating system alone.
var useAVX2, usePipe = cpuSweeps(cpuid, xgetbv0)

// cpuSweeps reads the two decisions off CPUID and XCR0. AVX2 needs the
// feature (leaf 7 EBX bit 5), AVX itself and OSXSAVE (leaf 1 ECX bits 28
// and 27) and an OS that saves the YMM state (XCR0 bits 1 and 2). The
// pipelined loops use FMA (leaf 1 ECX bit 12) and EVEX forms — mask
// registers, Y16 and up, VRCP14PD, and in the cutoff sweep's gate
// 512-bit compares and VPCOMPRESSD — so AVX-512F and VL (leaf 7 EBX bits
// 16 and 31) with the opmask and ZMM state enabled (XCR0 bits 5-7); the
// gate counts its survivors with POPCNT (leaf 1 ECX bit 23).
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
	pipe = avx2 && x&0xE0 == 0xE0 && c1&(1<<12|1<<23) == 1<<12|1<<23 && b7&(1<<16|1<<31) == 1<<16|1<<31
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

// sweepRepOpenSelfAVX512 is sweepRepOpenPipeAVX512 over sources that
// follow the lanes' targets in the caller's slice, n a positive multiple
// of four: each lane folds the sources in order, and each source takes
// the reactions of the four lanes, in lane order, into its accumulator.
//
//go:noescape
func sweepRepOpenSelfAVX512(ln *lanes4, src *Particle, n int, kk, soft2 float64)

// sweepRepCutSelfAVX512 is sweepRepOpenSelfAVX512 under the cutoff law,
// measured plainly: a lane adds, and a source takes the reaction of,
// only the pairs within the cutoff.
//
//go:noescape
func sweepRepCutSelfAVX512(ln *lanes4, src *Particle, n int, c *sweepConsts)

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

// pipeAdmits reports whether the pipelined loops may take this kernel's
// strength.
func (k *Kernel) pipeAdmits() bool {
	return math.Abs(k.k) >= pipeKMin && math.Abs(k.k) <= pipeKMax
}

// groups4 walks a call's targets as groups of four lanes. The one to
// three targets behind the last whole group ride in pad, filled up with
// copies of the first: lanes never interact, so a real lane's bits and
// tally are those of a lane in any other group, and the copies' are
// dropped. ln.same tallies the whole groups, lnr.same the padded one.
type groups4 struct {
	whole, rest []Particle
	pad         [4]Particle
	ln, lnr     lanes4
	at          int // the group next loads
}

func (g *groups4) init(targets []Particle) {
	full := len(targets) &^ 3
	g.whole, g.rest = targets[:full], targets[full:]
	if len(g.rest) > 0 {
		for i := range g.pad {
			g.pad[i] = g.rest[i%len(g.rest)]
		}
	}
}

// group returns the lanes and the targets of the group at i, or nils.
func (g *groups4) group(i int) (*lanes4, []Particle) {
	switch {
	case i >= 0 && i < len(g.whole):
		return &g.ln, g.whole[i : i+4]
	case i == len(g.whole) && len(g.rest) > 0:
		return &g.lnr, g.pad[:]
	}
	return nil, nil
}

// next stores the group it returned last and loads the one after it,
// for the caller to fold sources into; after the last it returns nil
// and starts over. Passes accumulate.
func (g *groups4) next() *lanes4 {
	if ln, t := g.group(g.at - 4); ln != nil {
		ln.store(t)
	}
	ln, t := g.group(g.at)
	if ln == nil {
		g.at = 0
		return nil
	}
	g.at += 4
	ln.load(t)
	return ln
}

// finish hands the padded targets their forces and returns the equal-ID
// pairs met: the pairs the Go loops skip without counting.
func (g *groups4) finish() int64 {
	same := g.ln.same[0] + g.ln.same[1] + g.ln.same[2] + g.ln.same[3]
	for i := range g.rest {
		g.rest[i].Force = g.pad[i].Force
		same += g.lnr.same[i]
	}
	return int64(same)
}

// sweepRepOpenVia is sweepRepOpenBlocks with the loop named: each group
// of four targets is loaded once, folds every block's sources in list
// order — the sequence the per-block calls would give each target — and
// is stored once. pipe sends the runs it admits through the pipelined
// loop; the others, and all of them without it, take the plain one.
func (k *Kernel) sweepRepOpenVia(pipe bool, targets []Particle, blocks [][]Particle) int64 {
	pipe = pipe && k.pipeAdmits()
	var g groups4
	g.init(targets)
	for ln := g.next(); ln != nil; ln = g.next() {
		for _, sources := range blocks {
			for lo := 0; lo < len(sources); lo += sweepChunk {
				if n := min(sweepChunk, len(sources)-lo); pipe && n >= pipeMin {
					sweepRepOpenPipeAVX512(ln, &sources[lo], n, k.k, k.soft2)
				} else {
					sweepRepOpenAVX2(ln, &sources[lo], n, k.k, k.soft2)
				}
			}
		}
	}
	n := -g.finish()
	for _, sources := range blocks {
		n += int64(len(targets)) * int64(len(sources))
	}
	return n
}

// sweepRepOpenSelf is accumulateRepOpen(ps, ps) with one evaluation per
// unordered pair of whole groups, bit for bit and count for count, where
// the pipelined loop admits the strength; elsewhere it runs the sweep of
// AccumulateIn(ps, ps, Box{}). The one to three targets behind the last
// whole group fold every source afterwards, in order, on the Go loop.
func (k *Kernel) sweepRepOpenSelf(ps []Particle) int64 {
	if !k.pipeAdmits() {
		return k.sweepRepOpenBlocks(ps, [][]Particle{ps})
	}
	whole, pairs := k.sweepSelf(ps, nil)
	return pairs + k.accumulateRepOpen(ps[whole:], ps)
}

// sweepRepCutSelf is accumulateCut(ps, ps, box) the way sweepRepOpenSelf
// is accumulateRepOpen(ps, ps), where selfDense admits the block;
// elsewhere it runs the sweep of AccumulateIn(ps, ps, box).
func (k *Kernel) sweepRepCutSelf(ps []Particle, box Box) int64 {
	if !k.selfDense(ps, box) {
		return k.sweepInRepCut(ps, ps, box)
	}
	c := sweepConsts{kk: spread(k.k), soft2: spread(k.soft2), rc2: spread(k.rc2)}
	whole, pairs := k.sweepSelf(ps, &c)
	return pairs + k.accumulateCut(ps[whole:], ps, box)
}

// selfDense is the rule under which a cutoff law's block meets itself on
// the symmetric sweep, which has no gate: the pipelined loop takes the
// strength, the block needs no wrap in a periodic box (the sweep
// measures plainly), and it spans at most the cutoff along each axis.
// Then every pair is in reach in one dimension and at least 97.5 % of
// them in two, and a gate would drop almost nothing.
func (k *Kernel) selfDense(ps []Particle, box Box) bool {
	if !k.pipeAdmits() {
		return false
	}
	lo, hi := extent(ps)
	if box.Boundary == Periodic {
		if ok, seam := wrapsIn(box, lo, hi, lo, hi); !ok || seam {
			return false
		}
	}
	return hi.X-lo.X <= k.rc && hi.Y-lo.Y <= k.rc
}

// sweepSelf is the loop of both symmetric sweeps over the whole groups of
// ps — the cutoff law's with c, the open law's without — and returns how
// many targets they hold and the pairs they count. The groups of four
// targets go in slice order. A group's accumulators already hold the
// reactions of every earlier source, in source order; the group folds
// its own four sources on the plain loop, whose ID test skips each
// target itself, then the later sources of whole groups with their
// reactions, then the one to three behind them on the plain loop, and is
// stored. Those last targets take no reactions: the caller sweeps them.
//
// A reaction is exact: the source's own sweep would compute the reverse
// displacement s - p, the same r2 (and d2, hence the same verdict of the
// cutoff), the same weight w, and add w times that displacement — which
// the group computes and adds in lane order, each target's contribution
// where the source's sweep would have added it. An equal-ID pair met
// against a later source is tallied once and stands for both of its
// ordered pairs.
func (k *Kernel) sweepSelf(ps []Particle, c *sweepConsts) (whole int, pairs int64) {
	whole = len(ps) &^ 3
	rest := ps[whole:]
	var ln lanes4
	var same uint64
	for g := 0; g < whole; g += 4 {
		group := ps[g : g+4]
		ln.load(group)
		s0 := ln.tally()
		k.sweepPlain(&ln, group, c)
		s1 := ln.tally()
		for lo := g + 4; lo < whole; lo += sweepChunk {
			if n := min(sweepChunk, whole-lo); c == nil {
				sweepRepOpenSelfAVX512(&ln, &ps[lo], n, k.k, k.soft2)
			} else {
				sweepRepCutSelfAVX512(&ln, &ps[lo], n, c)
			}
		}
		s2 := ln.tally()
		k.sweepPlain(&ln, rest, c)
		same += ln.tally() - s0 + s2 - s1
		ln.store(group)
	}
	return whole, int64(whole)*int64(len(ps)) - int64(same)
}

// sweepPlain folds sources into the lanes on the plain loop: the cutoff
// sweep's without the wrap with c, the open sweep's without.
func (k *Kernel) sweepPlain(ln *lanes4, sources []Particle, c *sweepConsts) {
	switch {
	case len(sources) == 0:
	case c == nil:
		sweepRepOpenAVX2(ln, &sources[0], len(sources), k.k, k.soft2)
	default:
		sweepInRepCutAVX2(ln, &sources[0], len(sources), c, false)
	}
}

// tally is the equal-ID sources the lanes have met.
func (ln *lanes4) tally() uint64 { return ln.same[0] + ln.same[1] + ln.same[2] + ln.same[3] }

// extent returns the componentwise minimum and maximum of the positions
// of ps — NaN where a coordinate is NaN, and (+Inf, -Inf) of nothing; a
// zero's sign is either. It needs AVX2, as every sweep that calls it
// does.
func extent(ps []Particle) (lo, hi vec.Vec2) {
	var box [2]vec.Vec2
	extentAVX2(ps, &box)
	return box[0], box[1]
}

//go:noescape
func extentAVX2(ps []Particle, box *[2]vec.Vec2)

// wraps reports what a periodic call must do about the minimum image,
// from the extents of its targets and its sources along one wrapped
// axis. ok is whether all of them lie in [0, l]: two such positions are
// at most l apart, and a displacement in [-l, l] needs at most the one
// shift the assembly applies. seam is whether any pair's displacement
// can leave [-l/2, l/2]. Rounding is monotone, so when the extreme
// differences do not, no fl(p - s) does, and every wrap would subtract
// a masked +0: the call may run the loop without one.
func wraps(tlo, thi, slo, shi, l float64) (ok, seam bool) {
	ok = tlo >= 0 && thi <= l && slo >= 0 && shi <= l
	seam = !(thi-slo <= l/2 && tlo-shi >= -l/2)
	return ok, seam
}

// wrapsIn is wraps over every axis the periodic box wraps, from the
// targets' and the sources' extents.
func wrapsIn(box Box, tlo, thi, slo, shi vec.Vec2) (ok, seam bool) {
	ok, seam = wraps(tlo.X, thi.X, slo.X, shi.X, box.L)
	if box.Dim >= 2 {
		okY, seamY := wraps(tlo.Y, thi.Y, slo.Y, shi.Y, box.L)
		ok, seam = ok && okY, seam || seamY
	}
	return ok, seam
}

// cutStageCap bounds the sources of one call of the pipelined cutoff
// sweep: they are staged on the stack, for every lane group to gate.
const cutStageCap = 256

// cutStage is a chunk of sources as a structure of arrays, so that a
// 512-bit load takes eight of them, and live, the routine's scratch: the
// indices of the sources a lane group's gate let through, in source
// order. (The gate stores whole vectors of eight, hence the slack.)
type cutStage struct {
	x, y [cutStageCap]float64
	id   [cutStageCap]uint32
	live [cutStageCap + 8]uint32
}

func (st *cutStage) fill(src []Particle) {
	for j := range src {
		s := &src[j]
		st.x[j], st.y[j], st.id[j] = s.Pos.X, s.Pos.Y, s.ID
	}
}

// sweepInRepCutPipeAVX512 is sweepInRepCutAVX2 over the first n sources
// staged in st, bit for bit: a gate that tests eight sources a vector
// against the group's four targets, and the survivors — any source with
// a lane in reach or a lane of its own ID — through the pipelined loop's
// quotient.
//
//go:noescape
func sweepInRepCutPipeAVX512(ln *lanes4, st *cutStage, n int, c *sweepConsts, periodic bool)

// sweepInRepCut is accumulateCut for the repulsive law, bit for bit and
// count for count.
func (k *Kernel) sweepInRepCut(targets, sources []Particle, box Box) int64 {
	return k.sweepInRepCutVia(usePipe, targets, sources, box)
}

// sweepInRepCutVia is sweepInRepCut with the loop named: pipe sends the
// strengths it admits through the gate and the pipelined loop, the
// others, and all of them without it, take the plain one. Either way the
// sources are taken a chunk at a time and every group of targets folds
// the chunk in source order.
func (k *Kernel) sweepInRepCutVia(pipe bool, targets, sources []Particle, box Box) int64 {
	c := sweepConsts{kk: spread(k.k), soft2: spread(k.soft2), rc2: spread(k.rc2)}
	periodic := box.Boundary == Periodic
	if periodic {
		tlo, thi := extent(targets)
		slo, shi := extent(sources)
		ok, seam := wrapsIn(box, tlo, thi, slo, shi)
		if !ok {
			return k.accumulateCut(targets, sources, box)
		}
		if periodic = seam; seam {
			inf := math.Inf(1)
			c.l, c.negl = spread(box.L), spread(-box.L)
			c.halfX, c.nhalfX = spread(box.L/2), spread(-box.L/2)
			c.halfY, c.nhalfY = spread(inf), spread(-inf)
			if box.Dim >= 2 {
				c.halfY, c.nhalfY = c.halfX, c.nhalfX
			}
		}
	}
	var g groups4
	g.init(targets)
	if pipe && k.pipeAdmits() {
		var st cutStage
		for lo := 0; lo < len(sources); lo += cutStageCap {
			n := min(cutStageCap, len(sources)-lo)
			st.fill(sources[lo : lo+n])
			for ln := g.next(); ln != nil; ln = g.next() {
				sweepInRepCutPipeAVX512(ln, &st, n, &c, periodic)
			}
		}
	} else {
		for lo := 0; lo < len(sources); lo += sweepChunk {
			n := min(sweepChunk, len(sources)-lo)
			for ln := g.next(); ln != nil; ln = g.next() {
				sweepInRepCutAVX2(ln, &sources[lo], n, &c, periodic)
			}
		}
	}
	return int64(len(targets))*int64(len(sources)) - g.finish()
}
