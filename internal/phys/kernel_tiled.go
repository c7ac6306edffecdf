package phys

import (
	"math"

	"repro/internal/vec"
)

// This file holds the compaction loop, the Go loop of every cutoff law
// (Kernel.AccumulateIn), and the staged sweep it folds survivors
// through. A cutoff law skips a beyond-cutoff pair
// without any add, which legalizes dropping it before any arithmetic:
// the loop blocks the interaction matrix into source tiles of
// vec.TileCap particles, loads a tile once into a structure-of-arrays
// scratch (vec.SoA), and takes it across every target before the next
// tile is touched. Per target and tile a gating pass (compactCut)
// computes each lane's displacement under the box's metric with
// sign-mask arithmetic (vec.NegMask) instead of data-dependent branches
// and compacts the survivors of the identity and cutoff gates in source
// order into a Staged scratch; SweepStaged then folds the law's weights
// over the dense survivors, four lanes in flight (breaking SQRTSD's
// false output dependency for the repulsive law), with no cutoff branch
// and an `r2 != 0` branch that is all but never taken. At typical cutoff
// densities the gate discards two thirds of the lanes before they reach
// the divider. Under Box{} the gate measures plainly: that is
// Accumulate with a cutoff law.
//
// An open law adds for every counted pair, so no pair may be dropped and
// staging buys nothing: its loops are kernel.go's, and what lifts their
// divider bound is doing four divisions at once (sweep_amd64.go).
//
// Bitwise contract. The loop is bit-identical to the generic per-pair
// reference (Law.AccumulateGeneric), wherever the tile seams fall,
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

// Staged holds pairs that passed every gate, for SweepStaged: each
// pair's displacement (DX, DY) toward its target and its squared
// distance D2 = DX·DX + DY·DY, in fold order.
type Staged struct {
	DX, DY, D2 [vec.TileCap]float64
}

// compactCut is the gating pass of the compaction loop: it computes the
// (box-metric) displacement of the target at (px, py) to each of the nt
// staged sources, counts the non-identity pairs, and compacts the lanes
// that pass both the identity gate (soa.ID[j] != id) and the cutoff gate
// (d2 <= rc2) into st, preserving source order. The gates are sign-mask
// arithmetic, not branches: a rejected lane is written to the scratch
// slot and then overwritten, instead of mispredicting. Survivor
// displacements and squared distances are exactly the values the
// generic path computes, so SweepStaged over st reproduces its
// arithmetic bit for bit.
func compactCut(st *Staged, soa *vec.SoA, nt int, px, py float64, id uint32, rc2 float64, periodic, dim2 bool, boxL, half float64) (int, int64) {
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
		st.DX[kc] = dx
		st.DY[kc] = dy
		st.D2[kc] = d2
		kc += int(idm &^ vec.NegMask(rc2-d2) & 1)
	}
	return kc, counted
}

// SweepStaged folds onto (fx, fy) the force of the first n pairs staged
// in st, in order, and returns the updated accumulators: each pair's
// weight at r2 = D2 + ε_s² times its displacement, bit for bit the
// generic path's f.Add(open.Pair(d, 0)) — including the exact +0 it adds
// for a pair whose r2 is 0, even where DX is not (a D2 that underflows):
// the `r2 != 0` branch is what adds +0 there instead of a -0 product.
// The kernel's cutoff is not applied; stage only pairs that passed it.
//
// Four lanes run concurrently with all four weights live before any is
// accumulated, which breaks SQRTSD's false output dependency; the law
// test in weight is the same every call and predicts perfectly.
func (k *Kernel) SweepStaged(fx, fy float64, st *Staged, n int) (float64, float64) {
	lj, kk, e24, sig2, soft2 := k.lj, k.k, k.e24, k.sig2, k.soft2
	m := 0
	for ; m+3 < n; m += 4 {
		r20 := st.D2[m] + soft2
		r21 := st.D2[m+1] + soft2
		r22 := st.D2[m+2] + soft2
		r23 := st.D2[m+3] + soft2
		var w0, w1, w2, w3 float64
		ok0, ok1, ok2, ok3 := false, false, false, false
		if r20 != 0 {
			w0 = weight(lj, kk, e24, sig2, r20)
			ok0 = true
		}
		if r21 != 0 {
			w1 = weight(lj, kk, e24, sig2, r21)
			ok1 = true
		}
		if r22 != 0 {
			w2 = weight(lj, kk, e24, sig2, r22)
			ok2 = true
		}
		if r23 != 0 {
			w3 = weight(lj, kk, e24, sig2, r23)
			ok3 = true
		}
		if ok0 {
			fx += w0 * st.DX[m]
			fy += w0 * st.DY[m]
		} else {
			fx += 0
			fy += 0
		}
		if ok1 {
			fx += w1 * st.DX[m+1]
			fy += w1 * st.DY[m+1]
		} else {
			fx += 0
			fy += 0
		}
		if ok2 {
			fx += w2 * st.DX[m+2]
			fy += w2 * st.DY[m+2]
		} else {
			fx += 0
			fy += 0
		}
		if ok3 {
			fx += w3 * st.DX[m+3]
			fy += w3 * st.DY[m+3]
		} else {
			fx += 0
			fy += 0
		}
	}
	for ; m < n; m++ {
		r2 := st.D2[m] + soft2
		if r2 == 0 {
			fx += 0
			fy += 0
			continue
		}
		w := weight(lj, kk, e24, sig2, r2)
		fx += w * st.DX[m]
		fy += w * st.DY[m]
	}
	return fx, fy
}

// weight is the law's force over distance at a softened squared distance
// r2 != 0, rounded as Law.pairVec rounds it: 24ε(2s⁶ - s³)/r2 with
// s = σ²/r2 for Lennard-Jones, K/(r2·√r2) for the repulsive law.
func weight(lj bool, kk, e24, sig2, r2 float64) float64 {
	if lj {
		s2 := sig2 / r2
		s6 := s2 * s2 * s2
		s12 := s6 * s6
		return e24 * (2*s12 - s6) / r2
	}
	return kk / (r2 * math.Sqrt(r2))
}

// accumulateCut is the compaction loop: AccumulateIn for a cutoff law.
func (k *Kernel) accumulateCut(targets, sources []Particle, box Box) int64 {
	periodic, dim2, boxL := box.Boundary == Periodic, box.Dim >= 2, box.L
	half := boxL / 2
	var soa vec.SoA
	var st Staged
	var n int64
	for base := 0; base < len(sources); base += vec.TileCap {
		nt := min(vec.TileCap, len(sources)-base)
		for j := 0; j < nt; j++ {
			s := &sources[base+j]
			soa.X[j], soa.Y[j], soa.ID[j] = s.Pos.X, s.Pos.Y, s.ID
		}
		for i := range targets {
			t := &targets[i]
			kc, counted := compactCut(&st, &soa, nt, t.Pos.X, t.Pos.Y, t.ID, k.rc2, periodic, dim2, boxL, half)
			n += counted
			t.Force.X, t.Force.Y = k.SweepStaged(t.Force.X, t.Force.Y, &st, kc)
		}
	}
	return n
}
