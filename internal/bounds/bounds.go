// Package bounds encodes the communication lower bounds of the paper's
// Section II and the closed-form costs of its algorithms, in units of
// messages (latency S) and particle-words (bandwidth W).
//
// The general Ballard et al. form (Equation 1) specializes for direct
// N-body interactions, where at most H(M) = O(M²) interactions can be
// computed with M particle operands, to
//
//	S_direct = Ω(n²/(p·M²))   W_direct = Ω(n²/(p·M))     (Equation 2)
//
// and with a cutoff limiting each particle to k interactions to
//
//	S_cutoff = Ω(n·k/(p·M²))  W_cutoff = Ω(n·k/(p·M))    (Equation 3)
//
// The communication-avoiding algorithm with replication factor c stores
// M = c·n/p particles per rank (Equation 4) and pays
//
//	S_ca = O(p/c²)            W_ca = O(n/c)              (Equation 5)
//
// which meets Equation 2; the distance-limited variant pays S = O(m/c)
// and W = O(m·n/p), meeting Equation 3.
package bounds

import "math"

// MemoryPerRank returns M, the particles stored per rank with
// replication factor c (Equation 4).
func MemoryPerRank(n, p, c int) float64 {
	return float64(c) * float64(n) / float64(p)
}

// DirectLatency returns the Ω term of S for all-pairs interactions
// (Equation 2) given memory M (in particles).
func DirectLatency(n, p int, m float64) float64 {
	return float64(n) * float64(n) / (float64(p) * m * m)
}

// DirectBandwidth returns the Ω term of W (in particles) for all-pairs
// interactions (Equation 2).
func DirectBandwidth(n, p int, m float64) float64 {
	return float64(n) * float64(n) / (float64(p) * m)
}

// CutoffLatency returns the Ω term of S for distance-limited
// interactions (Equation 3), where k is the number of interactions per
// particle.
func CutoffLatency(n, p int, k, m float64) float64 {
	return float64(n) * k / (float64(p) * m * m)
}

// CutoffBandwidth returns the Ω term of W (in particles) for
// distance-limited interactions (Equation 3).
func CutoffBandwidth(n, p int, k, m float64) float64 {
	return float64(n) * k / (float64(p) * m)
}

// CAAllPairsCosts returns the leading-order S (messages) and W
// (particles) of the communication-avoiding all-pairs algorithm
// (Equation 5), including the logarithmic broadcast/reduce terms.
func CAAllPairsCosts(n, p, c int) (s, w float64) {
	logc := math.Log2(float64(c))
	if logc < 0 {
		logc = 0
	}
	s = float64(p)/(float64(c)*float64(c)) + 2*logc + 1
	w = float64(n)/float64(c) + (2*logc+1)*MemoryPerRank(n, p, c)
	return
}

// CACutoffCosts returns the leading-order S and W of the
// distance-limited algorithm in one dimension, where m is the number of
// team widths spanned by the cutoff (Section IV-B: S = O(m/c),
// W = O(m·n/p)).
func CACutoffCosts(n, p, c, m int) (s, w float64) {
	logc := math.Log2(float64(c))
	if logc < 0 {
		logc = 0
	}
	steps := math.Ceil((2*float64(m) + 1) / float64(c))
	s = steps + 2*logc + 1
	w = steps*MemoryPerRank(n, p, c) + (2*logc+1)*MemoryPerRank(n, p, c)
	return
}

// UniformNeighbors returns k, the expected interactions per particle
// under a cutoff rc in a periodic box of side boxL with n uniformly
// distributed particles: the fraction of the domain within the cutoff
// (2·rc/L in 1D, π·rc²/L² in 2D), clamped to 1, times n. This is the
// k that instantiates Equation 3 for a given physical configuration,
// independent of the decomposition.
func UniformNeighbors(n, dim int, rc, boxL float64) float64 {
	if rc <= 0 || boxL <= 0 || n <= 0 {
		return 0
	}
	var frac float64
	switch dim {
	case 1:
		frac = 2 * rc / boxL
	default:
		frac = math.Pi * rc * rc / (boxL * boxL)
	}
	if frac > 1 {
		frac = 1
	}
	return frac * float64(n)
}

// OptimalityRatio returns achieved/lower-bound, i.e. how far a measured
// cost is above its lower bound. Ratios are ≥ 1 for correct algorithms
// and O(1) for communication-optimal ones.
func OptimalityRatio(achieved, lower float64) float64 {
	if lower <= 0 {
		return math.Inf(1)
	}
	return achieved / lower
}
