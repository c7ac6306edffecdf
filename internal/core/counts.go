package core

import (
	"math"

	"repro/internal/phys"
)

// ExpectedCounts is the exact per-timestep critical-path communication of
// an algorithm under tree collectives: the maximum over ranks of sent
// messages and bytes, per phase. The accounting tests assert the
// instrumented runtime reproduces these numbers exactly, which pins the
// implementation to the cost analysis of the paper (Equation 5 and
// Section IV-B).
type ExpectedCounts struct {
	BcastSends  int64 // max sends in the team broadcast
	BcastBytes  int64
	SkewSends   int64
	SkewBytes   int64
	ShiftSends  int64
	ShiftBytes  int64
	ReduceSends int64 // max sends in the team reduction (tree: 1)
	ReduceBytes int64
	ReduceRecvs int64 // max receives (the root's log c children)
}

// AllPairsExpectedCounts returns the exact critical-path counts for one
// timestep of the CA all-pairs algorithm with n particles on p ranks and
// replication c, using tree collectives.
func AllPairsExpectedCounts(n, p, c int) ExpectedCounts {
	T := p / c
	npt := n / T
	partBytes := int64(npt) * phys.WireSize
	forceBytes := int64(npt) * 16 // two float64 per particle
	logc := int64(0)
	if c > 1 {
		logc = int64(math.Ceil(math.Log2(float64(c))))
	}
	var e ExpectedCounts
	// Broadcast: binomial root sends ⌈log2 c⌉ messages of the team data.
	e.BcastSends = logc
	e.BcastBytes = logc * partBytes
	// Skew: every non-zero row sends one message (none when T == 1).
	if T > 1 && c > 1 {
		e.SkewSends = 1
		e.SkewBytes = partBytes
	}
	// Shift: p/c² steps of one message each, unless the shift is the
	// identity (c == T).
	if T > 1 && c < T {
		e.ShiftSends = int64(p / (c * c))
		e.ShiftBytes = e.ShiftSends * partBytes
	}
	// Reduce: every non-root sends exactly once; the root receives its
	// ⌈log2 c⌉ children.
	if c > 1 {
		e.ReduceSends = 1
		e.ReduceBytes = forceBytes
		e.ReduceRecvs = logc
	}
	return e
}
