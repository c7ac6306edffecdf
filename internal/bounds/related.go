package bounds

import "math"

// This file encodes the asymptotic communication costs of the related
// decompositions the paper surveys in Section II, so the repository can
// regenerate the survey's comparison and verify where each method stands
// relative to the lower bounds.

// ParticleDecompositionCosts returns the S and W of the naive particle
// decomposition (Section II-B): every processor sends its particles to
// every other processor, S = O(p), W = O(n).
func ParticleDecompositionCosts(n, p int) (s, w float64) {
	return float64(p), float64(n)
}

// ForceDecompositionCosts returns the S and W of Plimpton's force
// decomposition (Section II-B): a broadcast and a reduction over √p
// processors moving 2n/√p particles, S = O(log p), W = O(n/√p).
func ForceDecompositionCosts(n, p int) (s, w float64) {
	sq := math.Sqrt(float64(p))
	return math.Log2(float64(p)) + 1, 2 * float64(n) / sq
}

// SpatialDecompositionCosts returns the S and W of a spatial
// decomposition with a cutoff spanning m processor boxes in dim
// dimensions (Section II-C): S = O(m^d), W = O(n·m^d/p).
func SpatialDecompositionCosts(n, p, m, dim int) (s, w float64) {
	md := math.Pow(float64(m), float64(dim))
	return md, float64(n) * md / float64(p)
}

// NeutralTerritoryCosts returns the S and W of neutral-territory methods
// (Snir, Shaw — Section II-D): S = O(1), W = O(n·m^d/p^1.5).
func NeutralTerritoryCosts(n, p, m, dim int) (s, w float64) {
	md := math.Pow(float64(m), float64(dim))
	return 1, float64(n) * md / math.Pow(float64(p), 1.5)
}
