package phys

import "fmt"

// Step advances all particles by one symplectic-Euler timestep of length
// dt using the forces currently stored in their accumulators, then applies
// the box's boundary condition. Particles have unit mass.
//
// Symplectic Euler (kick-drift) is what the paper's simple simulation
// loop amounts to: the communication study does not depend on the
// integrator's order, only on the per-step force evaluation.
//
// A particle the drift carries more than one box length outside the box
// — a force, a timestep or a speed the step cannot resolve, up to values
// beyond float64 — ends the step with an error naming it; the particles
// before it have been advanced.
func Step(ps []Particle, box Box, dt float64) error {
	for i := range ps {
		p := &ps[i]
		p.Vel = p.Vel.Add(p.Force.Scale(dt))
		p.Pos = p.Pos.Add(p.Vel.Scale(dt))
		if !box.inReach(p.Pos) {
			return fmt.Errorf("phys: particle %d left the box by more than its length in one step (position %v, velocity %v)", p.ID, p.Pos, p.Vel)
		}
		box.Apply(p)
	}
	return nil
}

// MaxSpeed returns the largest particle speed, used by tests to confirm
// that the simulation stays numerically sane over many steps.
func MaxSpeed(ps []Particle) float64 {
	var m float64
	for i := range ps {
		if s := ps[i].Vel.Norm(); s > m {
			m = s
		}
	}
	return m
}
