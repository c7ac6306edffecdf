package bounds

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMemoryPerRank(t *testing.T) {
	// Equation 4: M = c·n/p.
	if got := MemoryPerRank(1000, 100, 5); got != 50 {
		t.Errorf("MemoryPerRank = %g, want 50", got)
	}
}

func TestDirectBoundsMatchEquation5(t *testing.T) {
	// Substituting M = c·n/p into Equation 2 must give the Equation 5
	// costs: S = p/c², W = n/c (leading order).
	const n, p = 1 << 16, 1 << 10
	for _, c := range []int{1, 2, 4, 8, 16, 32} {
		m := MemoryPerRank(n, p, c)
		if got, want := DirectLatency(n, p, m), float64(p)/float64(c*c); math.Abs(got-want) > 1e-9*want {
			t.Errorf("c=%d: S lower bound %g, want p/c² = %g", c, got, want)
		}
		if got, want := DirectBandwidth(n, p, m), float64(n)/float64(c); math.Abs(got-want) > 1e-9*want {
			t.Errorf("c=%d: W lower bound %g, want n/c = %g", c, got, want)
		}
	}
}

func TestLowerLowerBound(t *testing.T) {
	// The paper's key insight: more memory (larger c) lowers the lower
	// bound itself. Bounds must be strictly decreasing in M.
	const n, p = 4096, 256
	prevS, prevW := math.Inf(1), math.Inf(1)
	for _, c := range []int{1, 2, 4, 8, 16} {
		m := MemoryPerRank(n, p, c)
		s, w := DirectLatency(n, p, m), DirectBandwidth(n, p, m)
		if s >= prevS || w >= prevW {
			t.Errorf("c=%d: bounds did not decrease: S %g (prev %g), W %g (prev %g)", c, s, prevS, w, prevW)
		}
		prevS, prevW = s, w
	}
}

func TestCAAllPairsCostsMeetDirectBounds(t *testing.T) {
	// Equation 5 costs are within a constant (plus log) factor of the
	// Equation 2 bounds for every c — the optimality theorem.
	const n, p = 1 << 14, 1 << 8
	for _, c := range []int{1, 2, 4, 8, 16} {
		m := MemoryPerRank(n, p, c)
		s, w := CAAllPairsCosts(n, p, c)
		sLB, wLB := DirectLatency(n, p, m), DirectBandwidth(n, p, m)
		if s < sLB || w < wLB {
			t.Errorf("c=%d: algorithm beats its lower bound (S %g<%g or W %g<%g)", c, s, sLB, w, wLB)
		}
		if r := OptimalityRatio(s, sLB); r > 16 {
			t.Errorf("c=%d: latency ratio %g not O(1)", c, r)
		}
		if r := OptimalityRatio(w, wLB); r > 16 {
			t.Errorf("c=%d: bandwidth ratio %g not O(1)", c, r)
		}
	}
}

func TestCACutoffCostsMeetCutoffBounds(t *testing.T) {
	// Section IV-B: the 1D cutoff algorithm meets Equation 3 with
	// k = 2mc·n/p.
	const n, p = 1 << 14, 1 << 8
	for _, tc := range []struct{ c, m int }{
		{1, 4}, {2, 4}, {4, 8}, {8, 16}, {1, 32},
	} {
		k := kForSpan(n, p, tc.c, tc.m)
		mem := MemoryPerRank(n, p, tc.c)
		s, w := CACutoffCosts(n, p, tc.c, tc.m)
		sLB := CutoffLatency(n, p, k, mem)
		wLB := CutoffBandwidth(n, p, k, mem)
		if s < sLB || w < wLB {
			t.Errorf("c=%d m=%d: costs below bounds", tc.c, tc.m)
		}
		if r := OptimalityRatio(s, sLB); r > 32 {
			t.Errorf("c=%d m=%d: latency ratio %g", tc.c, tc.m, r)
		}
		if r := OptimalityRatio(w, wLB); r > 32 {
			t.Errorf("c=%d m=%d: bandwidth ratio %g", tc.c, tc.m, r)
		}
	}
}

func TestKForSpan(t *testing.T) {
	// Equation 7 at full span (m = half the teams, cutoff = half the
	// box) approaches k = n.
	const n, p, c = 1024, 64, 1
	k := kForSpan(n, p, c, p/2/c)
	if k != n {
		t.Errorf("full-span k = %g, want %d", k, n)
	}
}

func TestOptimalityRatio(t *testing.T) {
	if r := OptimalityRatio(10, 5); r != 2 {
		t.Errorf("ratio = %g", r)
	}
	if r := OptimalityRatio(10, 0); !math.IsInf(r, 1) {
		t.Errorf("zero bound ratio = %g, want +Inf", r)
	}
}

func TestBoundsPositive(t *testing.T) {
	prop := func(n, p, c uint8) bool {
		nn, pp, cc := int(n)+2, int(p)+1, int(c)%8+1
		m := MemoryPerRank(nn, pp, cc)
		return DirectLatency(nn, pp, m) > 0 && DirectBandwidth(nn, pp, m) > 0 &&
			CutoffLatency(nn, pp, 1, m) > 0 && CutoffBandwidth(nn, pp, 1, m) > 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// kForSpan returns k, the interactions per particle when the cutoff
// spans m of the p/c team regions in 1D (Equation 7): k = (2·m·c/p)·n.
func kForSpan(n, p, c, m int) float64 {
	return 2 * float64(m) * float64(c) / float64(p) * float64(n)
}
