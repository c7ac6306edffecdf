package phys

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Potential selects the pair interaction family.
type Potential int

const (
	// Repulsive is the paper's workload: |F| = K/r², U = K/r.
	Repulsive Potential = iota
	// LennardJones is the standard molecular-dynamics 12-6 potential
	// U = 4ε[(σ/r)¹² − (σ/r)⁶], the interaction cutoff methods exist
	// for in production MD codes. With a cutoff the potential is
	// truncated-and-shifted (U(r_c) subtracted), the usual correction
	// that keeps the energy continuous at the cutoff; the force is
	// plain-truncated.
	LennardJones
)

func (p Potential) String() string {
	switch p {
	case Repulsive:
		return "repulsive"
	case LennardJones:
		return "lennard-jones"
	default:
		return fmt.Sprintf("Potential(%d)", int(p))
	}
}

// LJLaw returns a Lennard-Jones law with well depth epsilon and length
// scale sigma (zero cutoff: all pairs).
func LJLaw(epsilon, sigma float64) Law {
	return Law{Kind: LennardJones, Epsilon: epsilon, Sigma: sigma, Softening: 1e-3 * sigma}
}

// ljForceOverR returns f(r)/r for the LJ force magnitude
// f(r) = 24ε(2(σ/r)¹² − (σ/r)⁶)/r, evaluated softened at r² = d²+ε_s².
func (l Law) ljForceOverR(r2 float64) float64 {
	s2 := l.Sigma * l.Sigma / r2
	s6 := s2 * s2 * s2
	s12 := s6 * s6
	return 24 * l.Epsilon * (2*s12 - s6) / r2
}

// ljPotential returns the unshifted LJ pair energy at squared distance
// r2.
func (l Law) ljPotential(r2 float64) float64 {
	s2 := l.Sigma * l.Sigma / r2
	s6 := s2 * s2 * s2
	return 4 * l.Epsilon * (s6*s6 - s6)
}

// pairVec dispatches the force computation by potential kind; d is the
// displacement toward the target particle.
func (l Law) pairVec(d vec.Vec2) vec.Vec2 {
	r2 := d.Norm2() + l.Softening*l.Softening
	if r2 == 0 {
		return vec.Vec2{}
	}
	switch l.Kind {
	case LennardJones:
		return d.Scale(l.ljForceOverR(r2))
	default:
		return d.Scale(l.K / (r2 * math.Sqrt(r2)))
	}
}

// potentialAt dispatches the pair energy by potential kind at softened
// squared distance r2, without any cutoff shift.
func (l Law) potentialAt(r2 float64) float64 {
	if r2 == 0 {
		return 0
	}
	switch l.Kind {
	case LennardJones:
		return l.ljPotential(r2)
	default:
		return l.K / math.Sqrt(r2)
	}
}
