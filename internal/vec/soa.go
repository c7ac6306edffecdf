package vec

import "math"

// TileCap is the capacity of one SoA staging tile, and so the width the
// compaction loop (phys.Kernel's, for every cutoff law) runs at: it
// takes sources TileCap at a time. 64 lanes of three hot arrays (X, Y,
// ID) is 1.5 KiB — small enough to live on the stack and stay resident
// in L1 across a whole target sweep, large enough that the per-(tile,
// target) costs — the gating and sweep calls, the force accumulator
// round trip — amortize to well under an operation per pair. Narrower tiles were measured and never won
// (results/pr23_simplicity.md).
const TileCap = 64

// SoA is a fixed-capacity structure-of-arrays staging tile: the
// positions and IDs of up to TileCap source particles, laid out as
// contiguous per-component lanes instead of an array of structs. The
// compaction loop fills one SoA per source block and gates it against
// every target, so each source is loaded from the particle slice once
// per tile instead of once per target, and the inner loop indexes three
// dense arrays the hardware prefetches trivially.
//
// SoA is plain value state with no methods on the hot path: a `var soa
// SoA` local in a loop function stays on the stack, which is what keeps
// the compaction loop allocation-free.
type SoA struct {
	X, Y [TileCap]float64
	ID   [TileCap]uint32
}

// The helpers below are the branch-free selection primitives of the
// compaction loop's gate: they turn IEEE-754 sign tests into 0/all-ones
// bit masks so data-dependent choices (beyond the cutoff? past half the
// box?) become AND/ANDN operations instead of unpredictable branches.
// They are exact — no floating-point operation is performed on the
// selected value — which is what lets the masked gate stay
// bitwise-identical to the branchy reference path.

// NegMask returns all-ones if x is negative (sign bit set, including
// -0 and negative NaNs), else 0. Because IEEE subtraction of two finite
// doubles underflows gradually, fl(a-b) is zero only when a == b and
// otherwise carries the sign of the exact difference — so
// NegMask(a-b) != 0 is exactly the predicate b > a for non-NaN inputs.
func NegMask(x float64) uint64 {
	return uint64(int64(math.Float64bits(x)) >> 63)
}

// Masked returns x if m is all-ones and +0 if m is zero. m must be one
// of those two values (as NegMask produces).
func Masked(x float64, m uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) & m)
}
