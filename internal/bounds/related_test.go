package bounds

import (
	"math"
	"testing"
)

func TestDecompositionCostOrdering(t *testing.T) {
	// Section II: force decomposition reduces latency by √p and
	// bandwidth by a factor p relative to... — concretely, it must beat
	// the particle decomposition on both axes at scale.
	const n, p = 1 << 16, 1 << 12
	sp, wp := ParticleDecompositionCosts(n, p)
	sf, wf := ForceDecompositionCosts(n, p)
	if sf >= sp || wf >= wp {
		t.Errorf("force (S=%g, W=%g) should beat particle (S=%g, W=%g)", sf, wf, sp, wp)
	}
	// The CA algorithm at c=√p matches the force decomposition up to
	// the collective model: the classical W_force = O(n/√p) assumes
	// pipelined collectives moving M words total, while this
	// repository's binomial trees move M words per stage (log c
	// stages). Within that log factor the costs must agree.
	c := int(math.Sqrt(p))
	sca, wca := CAAllPairsCosts(n, p, c)
	logc := math.Log2(float64(c))
	if sca > 4*sf {
		t.Errorf("CA latency at c=√p (S=%g) should match force decomposition (S=%g)", sca, sf)
	}
	if wca > (2*logc+2)*wf {
		t.Errorf("CA bandwidth at c=√p (W=%g) exceeds force decomposition (W=%g) beyond the log-stage factor", wca, wf)
	}
}

func TestNTBeatsSpatialOnBandwidth(t *testing.T) {
	// Section II-D: neutral territory improves on the spatial
	// decomposition's W by √p and its S to O(1).
	const n, p, m, dim = 1 << 20, 1 << 12, 4, 3
	ss, ws := SpatialDecompositionCosts(n, p, m, dim)
	snt, wnt := NeutralTerritoryCosts(n, p, m, dim)
	if snt >= ss {
		t.Errorf("NT latency %g should beat spatial %g", snt, ss)
	}
	if r := ws / wnt; math.Abs(r-math.Sqrt(p)) > 1e-6 {
		t.Errorf("NT bandwidth gain %g, want √p = %g", r, math.Sqrt(p))
	}
}

func TestSpatialOptimalAtMinimalMemory(t *testing.T) {
	// Section II-C: spatial decomposition is communication optimal at
	// M = O(n/p) — ratios must be O(1) and ≥ 1.
	sR, wR := spatialIsOptimalAtMinimalMemory(1<<20, 1<<12, 4, 3)
	if sR < 1 || wR < 1 {
		t.Errorf("ratios below 1: %g, %g (bound broken?)", sR, wR)
	}
	if sR > 8 || wR > 8 {
		t.Errorf("spatial decomposition not within O(1) of the bound: %g, %g", sR, wR)
	}
}

func TestNTOptimalAtSqrtPMemory(t *testing.T) {
	// Section II-D: NT methods are asymptotically optimal for
	// M = O(n/√p).
	sR, wR := ntIsOptimalAtSqrtPMemory(1<<20, 1<<12, 4, 3)
	if sR < 1 || wR < 1 {
		t.Errorf("ratios below 1: %g, %g", sR, wR)
	}
	if wR > 8 {
		t.Errorf("NT bandwidth not within O(1) of the bound: %g", wR)
	}
}

// spatialIsOptimalAtMinimalMemory checks the paper's Section II-C
// observation: plugging k = O(n·m^d/p) into Equation 3 with minimal
// memory M = n/p shows the spatial decomposition is communication
// optimal. It returns the achieved-over-bound ratios for S and W.
func spatialIsOptimalAtMinimalMemory(n, p, m, dim int) (sRatio, wRatio float64) {
	k := float64(n) * math.Pow(float64(m), float64(dim)) / float64(p)
	mem := float64(n) / float64(p)
	s, w := SpatialDecompositionCosts(n, p, m, dim)
	return OptimalityRatio(s, CutoffLatency(n, p, k, mem)),
		OptimalityRatio(w, CutoffBandwidth(n, p, k, mem))
}

// ntIsOptimalAtSqrtPMemory checks Section II-D: neutral-territory
// methods are asymptotically optimal for M = O(n/√p). It returns the
// achieved-over-bound ratios.
func ntIsOptimalAtSqrtPMemory(n, p, m, dim int) (sRatio, wRatio float64) {
	k := float64(n) * math.Pow(float64(m), float64(dim)) / float64(p)
	mem := float64(n) / math.Sqrt(float64(p))
	s, w := NeutralTerritoryCosts(n, p, m, dim)
	return OptimalityRatio(s, CutoffLatency(n, p, k, mem)),
		OptimalityRatio(w, CutoffBandwidth(n, p, k, mem))
}
