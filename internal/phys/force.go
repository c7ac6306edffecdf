package phys

import "repro/internal/vec"

// Law describes the pairwise interaction evaluated by both the serial
// reference kernels and the parallel algorithms.
//
// The paper's workload is a repulsive force whose magnitude drops off with
// the square of the distance: |F| = K/r². The force on particle i from
// particle j points from j toward i. Softening bounds the magnitude when
// two particles coincide, which keeps the reflective-boundary simulation
// stable without affecting the communication pattern under study. The
// Lennard-Jones family (Kind = LennardJones) is also provided, the
// production-MD interaction the cutoff machinery exists for.
type Law struct {
	// Kind selects the potential family (default Repulsive).
	Kind Potential
	// K scales the repulsive interaction strength.
	K float64
	// Epsilon and Sigma are the Lennard-Jones well depth and length
	// scale (used when Kind is LennardJones).
	Epsilon float64
	Sigma   float64
	// Softening is the Plummer-style softening length ε: the pair
	// distance is evaluated as sqrt(r² + ε²).
	Softening float64
	// Cutoff is the interaction radius r_c beyond which the force is
	// exactly zero. Cutoff <= 0 means no cutoff (all pairs interact).
	Cutoff float64
}

// DefaultLaw returns the interaction used throughout the tests and
// examples: unit strength with a small softening length and no cutoff.
func DefaultLaw() Law { return Law{K: 1, Softening: 1e-3} }

// WithCutoff returns a copy of l with the cutoff radius set to rc.
func (l Law) WithCutoff(rc float64) Law {
	l.Cutoff = rc
	return l
}

// Pair returns the force exerted on a particle at pi by a particle at pj.
// A zero vector is returned for pairs beyond the cutoff radius and for
// exactly coincident positions with zero softening.
func (l Law) Pair(pi, pj vec.Vec2) vec.Vec2 {
	d := pi.Sub(pj)
	if l.Cutoff > 0 && d.Norm2() > l.Cutoff*l.Cutoff {
		return vec.Vec2{}
	}
	return l.pairVec(d)
}

// PairPotential returns the potential energy of a pair for this law
// (softened), or zero beyond the cutoff. Lennard-Jones cutoffs use the
// truncated-and-shifted form so the energy is continuous at r_c. Used
// only by diagnostics.
func (l Law) PairPotential(pi, pj vec.Vec2) float64 {
	r2 := pi.Dist2(pj)
	if l.Cutoff > 0 && r2 > l.Cutoff*l.Cutoff {
		return 0
	}
	u := l.potentialAt(r2 + l.Softening*l.Softening)
	if l.Cutoff > 0 && l.Kind == LennardJones {
		u -= l.potentialAt(l.Cutoff*l.Cutoff + l.Softening*l.Softening)
	}
	return u
}

// AccumulateGeneric is the unspecialized reference implementation of
// the law's Kernel.AccumulateIn, evaluating every pair through Law.Pair
// with the kind and cutoff re-tested per pair. The specialized kernels
// are verified bitwise against it. Semantics and results are identical:
// it adds to every target the force of every source, skips pairs with
// equal IDs (a particle never acts on itself, even when the sources are
// a replica of the targets), measures under box when the law has a
// cutoff (minimum image in a periodic box) and plainly otherwise, and
// returns the pair evaluations, a beyond-cutoff pair included.
func (l Law) AccumulateGeneric(targets, sources []Particle, box Box) int64 {
	if l.Cutoff <= 0 {
		box = Box{}
	}
	open := l
	open.Cutoff = 0
	rc2 := l.Cutoff * l.Cutoff
	var n int64
	for i := range targets {
		t := &targets[i]
		f := t.Force
		for j := range sources {
			s := &sources[j]
			if s.ID == t.ID {
				continue
			}
			n++
			d := box.MinImage(t.Pos, s.Pos)
			if l.Cutoff > 0 && d.Norm2() > rc2 {
				continue
			}
			f = f.Add(open.Pair(d, vec.Vec2{}))
		}
		t.Force = f
	}
	return n
}
