// Package sim provides the simulation-level services around the core
// algorithms: physical observables (energy, temperature, momentum,
// radial distribution), trajectory output, and binary
// checkpoint/restore of simulation state. The public nbody package
// exposes these through Simulation; they are also what the longer
// examples use to demonstrate that the parallel algorithms produce
// physically sensible trajectories, not just matching force vectors.
package sim

import (
	"fmt"
	"math"

	"repro/internal/phys"
	"repro/internal/vec"
)

// Sample is one measurement of the system state.
type Sample struct {
	Step      int
	Time      float64 // Step · dt
	Kinetic   float64
	Potential float64
	Total     float64
	// Temperature is the kinetic temperature in reduced units:
	// 2·E_kin / (dof·n) with dof = spatial dimension.
	Temperature float64
	Momentum    vec.Vec2
	MaxSpeed    float64
}

// Measure computes a Sample of ps at the given step. The potential term
// is O(n²) (or cell-list assisted for cutoff laws); call it at the
// recorder's cadence, not every step.
func Measure(ps []phys.Particle, law phys.Law, box phys.Box, step int, dt float64) Sample {
	s := Sample{
		Step:     step,
		Time:     float64(step) * dt,
		Kinetic:  phys.KineticEnergy(ps),
		Momentum: phys.Momentum(ps),
		MaxSpeed: phys.MaxSpeed(ps),
	}
	s.Potential = phys.PotentialEnergy(ps, law)
	s.Total = s.Kinetic + s.Potential
	dof := float64(box.Dim)
	if n := float64(len(ps)); n > 0 && dof > 0 {
		s.Temperature = 2 * s.Kinetic / (dof * n)
	}
	return s
}

// RadialDistribution computes the radial distribution function g(r) of
// the particle set over bins of width rmax/bins, normalized so that an
// ideal gas gives g ≈ 1 in every bin. It is the classic MD observable
// for checking that a force law produces the expected structure (a
// depletion hole at short range for a repulsive potential).
func RadialDistribution(ps []phys.Particle, box phys.Box, bins int, rmax float64) ([]float64, error) {
	n := len(ps)
	if bins <= 0 || rmax <= 0 {
		return nil, fmt.Errorf("sim: rdf needs positive bins and rmax")
	}
	if n < 2 {
		return nil, fmt.Errorf("sim: rdf needs at least two particles")
	}
	counts := make([]float64, bins)
	width := rmax / float64(bins)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := box.Dist(ps[i].Pos, ps[j].Pos)
			if r >= rmax {
				continue
			}
			counts[int(r/width)] += 2 // both orderings
		}
	}
	// Normalize against the ideal-gas expectation for the box's
	// dimensionality.
	g := make([]float64, bins)
	var volume float64
	if box.Dim == 1 {
		volume = box.L
	} else {
		volume = box.L * box.L
	}
	density := float64(n) / volume
	for b := 0; b < bins; b++ {
		rLo := float64(b) * width
		rHi := rLo + width
		var shell float64
		if box.Dim == 1 {
			shell = 2 * (rHi - rLo) // both directions
		} else {
			shell = math.Pi * (rHi*rHi - rLo*rLo)
		}
		ideal := density * shell * float64(n)
		if ideal > 0 {
			g[b] = counts[b] / ideal
		}
	}
	return g, nil
}
