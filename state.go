package nbody

import (
	"fmt"
	"io"
	"math"

	"repro/internal/phys"
	"repro/internal/sim"
)

// Sample is one physical measurement of the system: energies,
// temperature, momentum.
type Sample = sim.Sample

// Observe measures the current state: kinetic, potential and total
// energy, kinetic temperature, total momentum and peak speed. The
// potential sum is O(n²); call it at a sampling cadence, not every step.
func (s *Simulation) Observe() Sample {
	return sim.Measure(s.particles, s.cfg.law(), s.cfg.box(), s.steps, s.cfg.DT)
}

// RadialDistribution computes the radial distribution function g(r) of
// the current state over `bins` bins up to radius rmax — the standard
// structural observable for particle systems.
func (s *Simulation) RadialDistribution(bins int, rmax float64) ([]float64, error) {
	return sim.RadialDistribution(s.particles, s.cfg.box(), bins, rmax)
}

// TrajectoryWriter streams frames in the extended XYZ format for
// molecular-visualization tools.
type TrajectoryWriter = sim.TrajectoryWriter

// NewTrajectoryWriter returns a writer appending XYZ frames to w.
func NewTrajectoryWriter(w io.Writer) *TrajectoryWriter { return sim.NewTrajectoryWriter(w) }

// WriteFrame appends the current state (sorted by particle ID) as one
// trajectory frame.
func (s *Simulation) WriteFrame(tw *TrajectoryWriter) error {
	return tw.WriteFrame(s.Particles(), s.cfg.box(), s.steps)
}

// Save writes a binary checkpoint of the simulation (configuration,
// progress, and full particle state) to w: everything a Run's results
// depend on, so Run(a), Save, Load, Run(b) ends where Run(a+b) does.
func (s *Simulation) Save(w io.Writer) error {
	cfg := s.cfg
	return sim.Save(w, &sim.Checkpoint{
		Header: sim.Header{
			Step: int64(s.steps), N: int64(cfg.N), P: int64(cfg.P), C: int64(cfg.C),
			Algorithm: int64(cfg.Algorithm), Dim: int64(cfg.Dim), Boundary: int64(cfg.Boundary),
			Seed: cfg.Seed, BoxLength: cfg.BoxLength, Cutoff: cfg.Cutoff, DT: cfg.DT,
			ForceK: cfg.ForceK, Softening: cfg.Softening, Lattice: cfg.Lattice,
			Potential: int64(cfg.Potential), Epsilon: cfg.Epsilon, Sigma: cfg.Sigma,
		},
		Particles: s.Particles(),
	})
}

// Load restores a simulation from a checkpoint written by Save. The
// restored simulation continues from the checkpointed particle state and
// step count, with the same configuration.
func Load(r io.Reader) (*Simulation, error) {
	cp, err := sim.Load(r)
	if err != nil {
		return nil, err
	}
	h := cp.Header
	cfg := Config{
		N: int(h.N), P: int(h.P), C: int(h.C), Algorithm: Algorithm(h.Algorithm),
		Dim: int(h.Dim), Boundary: Boundary(h.Boundary), Seed: h.Seed,
		BoxLength: h.BoxLength, Cutoff: h.Cutoff, DT: h.DT,
		ForceK: h.ForceK, Softening: h.Softening, Lattice: h.Lattice,
		Potential: PotentialKind(h.Potential), Epsilon: h.Epsilon, Sigma: h.Sigma,
	}.withDefaults()
	// A checkpoint written before New settled the replication factor may
	// carry a value its algorithm ignored; what ran is what is restored.
	if fixed := cfg.fixedC(); fixed != 0 {
		cfg.C = fixed
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if h.Step < 0 {
		return nil, fmt.Errorf("nbody: checkpoint at negative step %d", h.Step)
	}
	if cfg.N != len(cp.Particles) {
		return nil, fmt.Errorf("nbody: checkpoint particle count %d != header N %d", len(cp.Particles), cfg.N)
	}
	s := &Simulation{cfg: cfg, particles: cp.Particles, steps: int(h.Step)}
	phys.SortByID(s.particles)
	if err := checkParticles(s.particles, cfg); err != nil {
		return nil, err
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkParticles refuses a checkpoint's particles, sorted by ID, unless
// they are a state a run could have reached: IDs exactly 0..N-1, every
// position inside the box, every velocity finite, and in one dimension
// nothing off the X axis. A run started from anything else is not the
// continuation of one — a position far outside the box, say, sends the
// cutoff loops' neighbor searches across astronomically many cells.
func checkParticles(ps []phys.Particle, cfg Config) error {
	box := cfg.box()
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for i, p := range ps {
		switch {
		case p.ID != uint32(i):
			return fmt.Errorf("nbody: checkpoint particle IDs are not 0..%d: %d is missing or repeated", len(ps)-1, i)
		case !finite(p.Pos.X) || !finite(p.Pos.Y) || !box.Contains(p.Pos):
			return fmt.Errorf("nbody: checkpoint particle %d at %v is outside the box of length %g", i, p.Pos, box.L)
		case !finite(p.Vel.X) || !finite(p.Vel.Y):
			return fmt.Errorf("nbody: checkpoint particle %d has velocity %v", i, p.Vel)
		case cfg.Dim == 1 && (p.Pos.Y != 0 || p.Vel.Y != 0):
			return fmt.Errorf("nbody: checkpoint particle %d of a 1D run has Y position %g, Y velocity %g", i, p.Pos.Y, p.Vel.Y)
		}
	}
	return nil
}
