package phys

import (
	"math"

	"repro/internal/vec"
)

// This file holds the two box-metric cutoff loops of Kernel.AccumulateIn
// and the staged sweep the midpoint loop shares with them. The cutoff
// loops block the interaction matrix into source tiles of vec.TileCap
// particles: a tile is loaded once into a structure-of-arrays scratch
// (vec.SoA) and swept across every target before the next tile is
// touched. A source is therefore read from the particle slice once per
// tile instead of once per target, and the sweep indexes three dense
// arrays instead of striding through 52-byte particles. The tile is the
// whole scratch: the scratch is sized to stay in L1 beside the targets,
// and the per-(tile, target) costs only shrink with a wider tile.
//
// Per target and tile the loop gates, compacts and sweeps. AccumulateIn
// skips a beyond-cutoff pair without any add, which legalizes
// compaction: a gating pass computes each lane's box-metric displacement
// with sign-mask arithmetic (vec.NegMask) instead of data-dependent
// branches and compacts the survivors in source order into a scratch
// (cutScratch); a sweep pass then runs the sqrt/divide weights over the
// dense survivors — four sqrt lanes in flight to break SQRTSD's false
// output dependency, two divide lanes for LJ — whose cutoff branch has
// vanished and whose `r2 != 0` branch is all but never taken. At typical
// cutoff densities the gating pass discards two thirds of the lanes
// before they reach the divider.
//
// The Accumulate and open-law AccumulateIn flavors add an exact +0 for
// every counted force-free pair (beyond cutoff or coincident), so no
// pair's arithmetic may be skipped, and with every pair's weight
// mandatory the scalar divider is the bottleneck: staging buys nothing
// there (kernel.go). What lifts that bound is doing four divisions at
// once (sweep_amd64.go).
//
// Bitwise contract. The loops are bit-identical to the generic per-pair
// reference (Law.AccumulateInGeneric), wherever the tile seams fall,
// because:
//
//   - Per-target accumulation order is pinned: tiles are swept in
//     ascending source order and lanes accumulate in ascending order
//     within a tile, so each target folds its contributions in exactly
//     the reference sequence. Storing and reloading a force accumulator
//     at a tile boundary is exact.
//   - The sign masks are exact predicates: fl(a-b) of two doubles is
//     zero only when a == b and otherwise carries the sign of the exact
//     difference (gradual underflow never flushes a nonzero difference
//     to zero), so NegMask(rc2-d2) is precisely `d2 > rc2` and the
//     masked minimum-image wrap is precisely the loop in minImage1.
//   - Compaction only elides pairs for which the reference path
//     performs no floating-point operation at all (beyond-cutoff and
//     identity pairs), so the surviving operation sequence is unchanged.
//
// The same single-operation constant-hoisting rule as kernel.go
// applies: σ², r_c², ε_s², 24ε only. Folding σ⁶, 1/r_c², or the l/2 of
// the wrap into other constants would reassociate low-order bits.

// neqMask returns 1 if a != b, else 0.
func neqMask(a, b uint32) uint64 {
	v := a ^ b
	return uint64((v | -v) >> 31)
}

// wrap1 is minImage1 restricted to at most one image shift in either
// direction — which covers any displacement of two in-box positions —
// computed without data-dependent branches: each wrap condition becomes
// a sign mask and the shift a masked subtraction. The masked arithmetic
// is exact (d - +0 is d, bit for bit) and the masks are exact
// predicates (see NegMask), so the result matches the loop's.
// half must be l/2, the same value minImage1's conditions evaluate.
// Displacements needing more than one shift (impossible for in-box
// positions, but the kernels do not require callers to wrap) fall back
// to the loop.
//
// This function is the documented, tested spec of the wrap; the hot
// gating pass (compactCut) inlines its body by hand, because the
// fallback call alone nearly fills the compiler's inlining budget and a
// real call per lane costs more than the wrap it performs.
func wrap1(d, l, half float64) float64 {
	w := d - vec.Masked(l, vec.NegMask(half-d))
	// The up-shift must be a subtraction of a masked -l, not an addition
	// of a masked +l: w - (+0) is w bit for bit even at w = -0, whereas
	// w + (+0) would round -0 up to +0. w - (-l) is exactly w + l.
	w -= vec.Masked(-l, vec.NegMask(w+half))
	if w > half || w < -half {
		return minImage1(d, l)
	}
	return w
}

// cutScratch holds the survivors of a tile's gating pass: the
// displacements and squared distances of the pairs that passed the
// identity and cutoff gates, compacted in source order.
type cutScratch struct {
	dx, dy, d2 [vec.TileCap]float64
}

// compactCut is the gating pass of the cutoff compaction loops: it
// computes the (box-metric) displacement of the target at (px, py) to
// each of the nt staged sources, counts the non-identity pairs, and
// compacts the lanes that pass both the identity gate (soa.ID[j] != id)
// and the cutoff gate (d2 <= rc2) into cs, preserving source order.
// The gates are sign-mask arithmetic, not branches: a rejected lane is
// written to the scratch slot and then overwritten, instead of
// mispredicting. Survivor displacements and squared distances are
// exactly the values the generic path computes, so the caller's sweep
// over cs reproduces its arithmetic bit for bit.
func compactCut(cs *cutScratch, soa *vec.SoA, nt int, px, py float64, id uint32, rc2 float64, periodic, dim2 bool, boxL, half float64) (int, int64) {
	kc := 0
	var counted int64
	for j := 0; j < nt; j++ {
		dx := px - soa.X[j]
		dy := py - soa.Y[j]
		if periodic {
			// wrap1, inlined by hand (see its comment). The fallback
			// branch is never taken for in-box positions, so it predicts
			// perfectly; only the masked arithmetic is on the hot path.
			wx := dx - vec.Masked(boxL, vec.NegMask(half-dx))
			wx -= vec.Masked(-boxL, vec.NegMask(wx+half))
			if wx > half || wx < -half {
				wx = minImage1(dx, boxL)
			}
			dx = wx
			if dim2 {
				wy := dy - vec.Masked(boxL, vec.NegMask(half-dy))
				wy -= vec.Masked(-boxL, vec.NegMask(wy+half))
				if wy > half || wy < -half {
					wy = minImage1(dy, boxL)
				}
				dy = wy
			}
		}
		d2 := dx*dx + dy*dy
		idm := neqMask(soa.ID[j], id)
		counted += int64(idm)
		cs.dx[kc] = dx
		cs.dy[kc] = dy
		cs.d2[kc] = d2
		kc += int(idm &^ vec.NegMask(rc2-d2) & 1)
	}
	return kc, counted
}

// sweepCutRep folds the repulsive force of the kc compacted survivors
// in cs onto (fx, fy), in order. Four sqrt lanes run concurrently with
// all four weights live before any is accumulated (breaking SQRTSD's
// false output dependency); the `r2 != 0` branch is taken for every
// survivor except an exactly-coincident zero-softening pair, so it
// predicts perfectly, and that rare survivor contributes the same +0
// the generic path adds.
func sweepCutRep(cs *cutScratch, kc int, fx, fy, kk, soft2 float64) (float64, float64) {
	m := 0
	for ; m+3 < kc; m += 4 {
		r20 := cs.d2[m] + soft2
		r21 := cs.d2[m+1] + soft2
		r22 := cs.d2[m+2] + soft2
		r23 := cs.d2[m+3] + soft2
		var w0, w1, w2, w3 float64
		ok0, ok1, ok2, ok3 := false, false, false, false
		if r20 != 0 {
			w0 = kk / (r20 * math.Sqrt(r20))
			ok0 = true
		}
		if r21 != 0 {
			w1 = kk / (r21 * math.Sqrt(r21))
			ok1 = true
		}
		if r22 != 0 {
			w2 = kk / (r22 * math.Sqrt(r22))
			ok2 = true
		}
		if r23 != 0 {
			w3 = kk / (r23 * math.Sqrt(r23))
			ok3 = true
		}
		if ok0 {
			fx += w0 * cs.dx[m]
			fy += w0 * cs.dy[m]
		} else {
			fx += 0
			fy += 0
		}
		if ok1 {
			fx += w1 * cs.dx[m+1]
			fy += w1 * cs.dy[m+1]
		} else {
			fx += 0
			fy += 0
		}
		if ok2 {
			fx += w2 * cs.dx[m+2]
			fy += w2 * cs.dy[m+2]
		} else {
			fx += 0
			fy += 0
		}
		if ok3 {
			fx += w3 * cs.dx[m+3]
			fy += w3 * cs.dy[m+3]
		} else {
			fx += 0
			fy += 0
		}
	}
	for ; m < kc; m++ {
		r2 := cs.d2[m] + soft2
		if r2 == 0 {
			fx += 0
			fy += 0
			continue
		}
		w := kk / (r2 * math.Sqrt(r2))
		fx += w * cs.dx[m]
		fy += w * cs.dy[m]
	}
	return fx, fy
}

// sweepCutLJ is the Lennard-Jones counterpart of sweepCutRep. DIVSD's
// destination is a true input rewritten every iteration — there is no
// false dependency to break — so two lanes in flight are enough to
// cover the divider latency.
func sweepCutLJ(cs *cutScratch, kc int, fx, fy, e24, sig2, soft2 float64) (float64, float64) {
	m := 0
	for ; m+1 < kc; m += 2 {
		r20 := cs.d2[m] + soft2
		r21 := cs.d2[m+1] + soft2
		var w0, w1 float64
		ok0, ok1 := false, false
		if r20 != 0 {
			s2 := sig2 / r20
			s6 := s2 * s2 * s2
			s12 := s6 * s6
			w0 = e24 * (2*s12 - s6) / r20
			ok0 = true
		}
		if r21 != 0 {
			s2 := sig2 / r21
			s6 := s2 * s2 * s2
			s12 := s6 * s6
			w1 = e24 * (2*s12 - s6) / r21
			ok1 = true
		}
		if ok0 {
			fx += w0 * cs.dx[m]
			fy += w0 * cs.dy[m]
		} else {
			fx += 0
			fy += 0
		}
		if ok1 {
			fx += w1 * cs.dx[m+1]
			fy += w1 * cs.dy[m+1]
		} else {
			fx += 0
			fy += 0
		}
	}
	for ; m < kc; m++ {
		r2 := cs.d2[m] + soft2
		if r2 == 0 {
			fx += 0
			fy += 0
			continue
		}
		s2 := sig2 / r2
		s6 := s2 * s2 * s2
		s12 := s6 * s6
		w := e24 * (2*s12 - s6) / r2
		fx += w * cs.dx[m]
		fy += w * cs.dy[m]
	}
	return fx, fy
}

// fillTile stages sources[base:base+nt] into the SoA scratch.
func fillTile(soa *vec.SoA, sources []Particle, base, nt int) {
	for j := 0; j < nt; j++ {
		s := &sources[base+j]
		soa.X[j], soa.Y[j], soa.ID[j] = s.Pos.X, s.Pos.Y, s.ID
	}
}

func (k *Kernel) accumulateInRepCut(targets, sources []Particle, box Box) int64 {
	kk, soft2, rc2 := k.k, k.soft2, k.rc2
	periodic, dim2, boxL := box.Boundary == Periodic, box.Dim >= 2, box.L
	half := boxL / 2
	var soa vec.SoA
	var cs cutScratch
	var n int64
	for base := 0; base < len(sources); base += vec.TileCap {
		nt := min(vec.TileCap, len(sources)-base)
		fillTile(&soa, sources, base, nt)
		for i := range targets {
			t := &targets[i]
			px, py, id := t.Pos.X, t.Pos.Y, t.ID
			kc, counted := compactCut(&cs, &soa, nt, px, py, id, rc2, periodic, dim2, boxL, half)
			n += counted
			t.Force.X, t.Force.Y = sweepCutRep(&cs, kc, t.Force.X, t.Force.Y, kk, soft2)
		}
	}
	return n
}

func (k *Kernel) accumulateInLJCut(targets, sources []Particle, box Box) int64 {
	e24, sig2, soft2, rc2 := k.e24, k.sig2, k.soft2, k.rc2
	periodic, dim2, boxL := box.Boundary == Periodic, box.Dim >= 2, box.L
	half := boxL / 2
	var soa vec.SoA
	var cs cutScratch
	var n int64
	for base := 0; base < len(sources); base += vec.TileCap {
		nt := min(vec.TileCap, len(sources)-base)
		fillTile(&soa, sources, base, nt)
		for i := range targets {
			t := &targets[i]
			px, py, id := t.Pos.X, t.Pos.Y, t.ID
			kc, counted := compactCut(&cs, &soa, nt, px, py, id, rc2, periodic, dim2, boxL, half)
			n += counted
			t.Force.X, t.Force.Y = sweepCutLJ(&cs, kc, t.Force.X, t.Force.Y, e24, sig2, soft2)
		}
	}
	return n
}

// SweepStaged accumulates onto (fx, fy) the open-law force on a target
// at (px, py) from the first nt staged positions in soa, in lane order,
// and returns the updated accumulators. It is the flush half of a
// stage-and-sweep traversal: the caller applies its own eligibility
// gates (cutoff, ownership, identity — the SoA ID lane is ignored)
// while staging positions, and the sweep is bitwise-identical to
// folding f = f.Add(openLaw.Pair(target, source)) over the staged
// sources in order, including the exact +0 the generic path adds for a
// coincident pair. The kernel's cutoff is not applied; stage only pairs
// that already passed it. The midpoint timestep loop uses this to run
// its gated traversal through the four-wide arithmetic.
func (k *Kernel) SweepStaged(fx, fy, px, py float64, soa *vec.SoA, nt int) (float64, float64) {
	if k.lj {
		e24, sig2, soft2 := k.e24, k.sig2, k.soft2
		j := 0
		for ; j+1 < nt; j += 2 {
			dx0 := px - soa.X[j]
			dy0 := py - soa.Y[j]
			dx1 := px - soa.X[j+1]
			dy1 := py - soa.Y[j+1]
			r20 := dx0*dx0 + dy0*dy0 + soft2
			r21 := dx1*dx1 + dy1*dy1 + soft2
			var w0, w1 float64
			ok0, ok1 := false, false
			if r20 != 0 {
				s2 := sig2 / r20
				s6 := s2 * s2 * s2
				s12 := s6 * s6
				w0 = e24 * (2*s12 - s6) / r20
				ok0 = true
			}
			if r21 != 0 {
				s2 := sig2 / r21
				s6 := s2 * s2 * s2
				s12 := s6 * s6
				w1 = e24 * (2*s12 - s6) / r21
				ok1 = true
			}
			if ok0 {
				fx += w0 * dx0
				fy += w0 * dy0
			} else {
				fx += 0
				fy += 0
			}
			if ok1 {
				fx += w1 * dx1
				fy += w1 * dy1
			} else {
				fx += 0
				fy += 0
			}
		}
		for ; j < nt; j++ {
			dx := px - soa.X[j]
			dy := py - soa.Y[j]
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
		return fx, fy
	}
	kk, soft2 := k.k, k.soft2
	j := 0
	for ; j+3 < nt; j += 4 {
		dx0 := px - soa.X[j]
		dy0 := py - soa.Y[j]
		dx1 := px - soa.X[j+1]
		dy1 := py - soa.Y[j+1]
		dx2 := px - soa.X[j+2]
		dy2 := py - soa.Y[j+2]
		dx3 := px - soa.X[j+3]
		dy3 := py - soa.Y[j+3]
		r20 := dx0*dx0 + dy0*dy0 + soft2
		r21 := dx1*dx1 + dy1*dy1 + soft2
		r22 := dx2*dx2 + dy2*dy2 + soft2
		r23 := dx3*dx3 + dy3*dy3 + soft2
		var w0, w1, w2, w3 float64
		ok0, ok1, ok2, ok3 := false, false, false, false
		if r20 != 0 {
			w0 = kk / (r20 * math.Sqrt(r20))
			ok0 = true
		}
		if r21 != 0 {
			w1 = kk / (r21 * math.Sqrt(r21))
			ok1 = true
		}
		if r22 != 0 {
			w2 = kk / (r22 * math.Sqrt(r22))
			ok2 = true
		}
		if r23 != 0 {
			w3 = kk / (r23 * math.Sqrt(r23))
			ok3 = true
		}
		if ok0 {
			fx += w0 * dx0
			fy += w0 * dy0
		} else {
			fx += 0
			fy += 0
		}
		if ok1 {
			fx += w1 * dx1
			fy += w1 * dy1
		} else {
			fx += 0
			fy += 0
		}
		if ok2 {
			fx += w2 * dx2
			fy += w2 * dy2
		} else {
			fx += 0
			fy += 0
		}
		if ok3 {
			fx += w3 * dx3
			fy += w3 * dy3
		} else {
			fx += 0
			fy += 0
		}
	}
	for ; j < nt; j++ {
		dx := px - soa.X[j]
		dy := py - soa.Y[j]
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
	return fx, fy
}
