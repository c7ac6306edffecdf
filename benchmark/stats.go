package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the percentiles a report may quote beside the median.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a quoted percentile.
const minBeyond = 10

// tailPercentile is the reporting rule of the choosing-metrics guide:
// the highest percentile of the ladder that still has at least ten of
// the n samples beyond it, or 50 when even p75 has fewer.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if beyond := float64(n) * (100 - p) / 100; beyond+1e-9 >= minBeyond { // 100 − 99.9 is not exactly 0.1

			best = p
		}
	}
	return best
}

// quarterDrift splits xs (in measurement order) into four consecutive
// quarters and returns (max − min of the quarter medians) ÷ the overall
// median: how far the host moved while the set ran.
func quarterDrift(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for q := 0; q < 4; q++ {
		m := median(xs[q*len(xs)/4 : (q+1)*len(xs)/4])
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	return (hi - lo) / median(xs)
}
