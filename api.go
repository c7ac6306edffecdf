package nbody

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/record"
	"repro/internal/phys"
	"repro/internal/trace"
)

// Particle is a simulation particle: 52 bytes on the wire, unit mass,
// with position, velocity and a per-step force accumulator.
type Particle = phys.Particle

// Boundary selects the behavior at the box edge.
type Boundary = phys.Boundary

// Boundary conditions.
const (
	Reflective = phys.Reflective
	Periodic   = phys.Periodic
)

// PotentialKind selects the pair-interaction family.
type PotentialKind = phys.Potential

// Potential families: the paper's repulsive 1/r² force (default) and the
// Lennard-Jones 12-6 potential of production MD codes.
const (
	RepulsivePotential    = phys.Repulsive
	LennardJonesPotential = phys.LennardJones
)

// ProcGroup is one OS process's membership in a multi-process rank
// mesh; see JoinProcs.
type ProcGroup = comm.Proc

// ProcListener is a bound-but-unformed rendezvous for spawning
// follower processes; see ListenProcs.
type ProcListener = comm.ProcListener

// JoinProcs forms (or joins) a mesh of `procs` OS processes at the
// rendezvous address — "host:port" for TCP, a filesystem path (or
// "unix:path") for unix-domain sockets — each hosting ranksPerProc
// world ranks. The process that binds the address becomes proc 0;
// every process of one simulation must pass the same procs and
// ranksPerProc. Hand the result to Config.Proc (its WorldSize must
// equal Config.P) and Close it after the last run.
func JoinProcs(rendezvous string, procs, ranksPerProc int) (*ProcGroup, error) {
	return comm.JoinProcs(rendezvous, procs, ranksPerProc)
}

// ListenProcs binds the rendezvous address without waiting for peers,
// so a launcher can bind port 0, read Addr, spawn followers pointing
// at it, and then Accept to become proc 0.
func ListenProcs(rendezvous string, procs, ranksPerProc int) (*ProcListener, error) {
	return comm.ListenProcs(rendezvous, procs, ranksPerProc)
}

// Algorithm selects the parallel decomposition.
type Algorithm int

const (
	// Auto picks CAAllPairs when Cutoff is zero and CACutoff otherwise.
	Auto Algorithm = iota
	// CAAllPairs is the communication-avoiding all-pairs algorithm
	// (Algorithm 1 of the paper).
	CAAllPairs
	// CACutoff is the communication-avoiding distance-limited algorithm
	// (Algorithm 2 and its 2D generalization). Requires Cutoff > 0.
	CACutoff
	// ParticleDecomp is Plimpton's particle decomposition, the c = 1
	// degenerate case.
	ParticleDecomp
	// ForceDecomp is Plimpton's force decomposition, the c = √p extreme.
	ForceDecomp
	// NaiveAllGather is the textbook baseline that allgathers all
	// particles every step (Section II-B).
	NaiveAllGather
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case CAAllPairs:
		return "ca-all-pairs"
	case CACutoff:
		return "ca-cutoff"
	case ParticleDecomp:
		return "particle-decomposition"
	case ForceDecomp:
		return "force-decomposition"
	case NaiveAllGather:
		return "naive-allgather"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config describes a simulation. Zero values get sensible defaults (see
// field comments).
type Config struct {
	// N is the number of particles (required).
	N int
	// P is the number of parallel ranks, each run as a goroutine
	// (default 1).
	P int
	// C is the replication factor, 1 ≤ c ≤ √p for all-pairs runs
	// (default 1). The number of teams p/c must divide N for all-pairs.
	// Three algorithms fix it — ParticleDecomp and NaiveAllGather run
	// at c = 1, ForceDecomp at c = √p: there 0 and 1 mean
	// "whatever the algorithm runs at", any other value that disagrees
	// is rejected, and Simulation.Config reports the value in effect.
	C int
	// Algorithm selects the decomposition (default Auto).
	Algorithm Algorithm
	// Dim is the spatial dimension, 1 or 2 (default 2).
	Dim int
	// BoxLength is the simulation box side (default 16).
	BoxLength float64
	// Boundary is the edge behavior (default Reflective, as in the
	// paper).
	Boundary Boundary
	// Cutoff is the interaction radius; 0 means all pairs interact.
	Cutoff float64
	// DT is the timestep length (default 1e-3).
	DT float64
	// Seed drives the deterministic particle initialization (default 1).
	Seed uint64
	// Potential selects the interaction family (default
	// RepulsivePotential, the paper's workload).
	Potential PotentialKind
	// ForceK scales the repulsive 1/r² force (default 1); Softening is
	// the Plummer softening length (default 1e-3).
	ForceK    float64
	Softening float64
	// Epsilon and Sigma parameterize the Lennard-Jones potential
	// (defaults 1 and BoxLength/16).
	Epsilon float64
	Sigma   float64
	// Lattice, when true, initializes particles on a jittered lattice
	// (near-uniform density, as the paper's cutoff experiments assume)
	// instead of uniformly at random.
	Lattice bool
	// Clusters, when positive, initializes particles in that many
	// Gaussian blobs of width ClusterSigma (≤ 0 means 1/16 of the box;
	// NaN and ±Inf are rejected) — the non-uniform workload that
	// stresses spatial load balance. Overrides Lattice. A count below
	// zero or above N is rejected.
	Clusters     int
	ClusterSigma float64
	// Workers is the intra-rank worker-pool width for the force phase:
	// each rank tiles its force accumulation across this many
	// goroutines by disjoint target ranges, so results are
	// bitwise-identical for every width. 0 (the default) spreads
	// GOMAXPROCS evenly over the P ranks, clamped to 1 once the ranks
	// alone cover the machine. Explicit values trade off against P:
	// the run keeps P × Workers goroutines compute-busy, so P ×
	// Workers > GOMAXPROCS oversubscribes the machine — the force
	// phase then time-slices instead of speeding up, and latency-bound
	// phases (shifts, reductions) suffer scheduling jitter. Prefer
	// raising Workers only while P × Workers ≤ GOMAXPROCS; negative
	// values, and P × Workers above 2^20, are rejected.
	Workers int
	// Observe, when non-nil, records a per-rank event timeline and a
	// metrics registry during runs; retrieve them with
	// Simulation.Timeline and Simulation.MetricsSnapshot. Nil (the
	// default) keeps the hot paths instrumentation-free.
	Observe *ObserveOptions
	// Proc, when non-nil, spans runs across the OS processes of a
	// socket mesh (JoinProcs): this process executes only its share of
	// the P ranks and remote traffic travels TCP or unix sockets.
	// Proc.WorldSize() must equal P, and every process of the mesh must
	// construct an identical Simulation and make the same Run calls —
	// runs are collective. Results, reports and measured S/W are
	// bit-identical to the single-process run.
	Proc *ProcGroup
}

func (c Config) withDefaults() Config {
	if c.P == 0 {
		c.P = 1
	}
	if c.C == 0 {
		c.C = 1
	}
	if c.Dim == 0 {
		c.Dim = 2
	}
	if c.BoxLength == 0 {
		c.BoxLength = 16
	}
	if c.DT == 0 {
		c.DT = 1e-3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ForceK == 0 {
		c.ForceK = 1
	}
	if c.Softening == 0 {
		c.Softening = 1e-3
	}
	if c.Potential == LennardJonesPotential {
		if c.Epsilon == 0 {
			c.Epsilon = 1
		}
		if c.Sigma == 0 {
			c.Sigma = c.BoxLength / 16
		}
	}
	return c
}

func (c Config) box() phys.Box {
	return phys.NewBox(c.BoxLength, c.Dim, c.Boundary)
}

func (c Config) law() phys.Law {
	return phys.Law{
		Kind: c.Potential, K: c.ForceK, Epsilon: c.Epsilon, Sigma: c.Sigma,
		Softening: c.Softening, Cutoff: c.Cutoff,
	}
}

// fixedC returns the replication factor the configured algorithm always
// runs at, or 0 when it runs at the caller's. The drivers of those
// algorithms overwrite Params.C, so what the configuration, the
// recorder header and a checkpoint report is settled before any of them
// is built.
func (c Config) fixedC() int {
	switch c.resolveAlgorithm() {
	case ParticleDecomp, NaiveAllGather:
		return 1
	case ForceDecomp:
		// A non-square P is the session constructor's to reject.
		if root := int(math.Round(math.Sqrt(float64(c.P)))); root*root == c.P {
			return root
		}
	}
	return 0
}

// resolveAlgorithm maps Auto onto a concrete decomposition.
func (c Config) resolveAlgorithm() Algorithm {
	if c.Algorithm != Auto {
		return c.Algorithm
	}
	if c.Cutoff > 0 {
		return CACutoff
	}
	return CAAllPairs
}

// Simulation owns a particle set and advances it in parallel. Between
// Runs it holds a session: the parallel state the algorithm runs on —
// the ranks' communication world and every rank's loop with its buffers
// — so that a Run costs its steps, not a rebuild. The session is memory
// only; no goroutine lives between Runs.
type Simulation struct {
	cfg       Config
	particles []Particle
	report    *trace.Report
	observer  *obs.Observer
	recorder  *record.Recorder
	steps     int
	// session is built from particles by New, Load or the first Run after
	// it was dropped (by a failed Run or EnableObservation). particles
	// then aliases its gather buffer, which only its next Advance writes.
	session *core.Session
}

// errNotObserved is returned by the observability exporters when the
// simulation was created without Config.Observe.
var errNotObserved = fmt.Errorf("nbody: simulation not observed (set Config.Observe)")

// New validates cfg, initializes the particle set deterministically from
// the seed, and returns a ready simulation. Infeasible (p, c, n)
// combinations fail here rather than mid-run: New runs the session
// constructor, which validates without starting anything.
func New(cfg Config) (*Simulation, error) {
	cfg = cfg.withDefaults()
	if fixed := cfg.fixedC(); fixed != 0 {
		// 0 and 1 are what a caller who does not care passes (cmd/nbody's
		// -c defaults to 1); a larger value the algorithm would ignore is
		// a contradiction.
		if cfg.C > 1 && cfg.C != fixed {
			return nil, fmt.Errorf("nbody: %v runs at c=%d, but C=%d was asked for", cfg.resolveAlgorithm(), fixed, cfg.C)
		}
		cfg.C = fixed
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Simulation{cfg: cfg, particles: cfg.initialParticles()}
	if err := s.build(); err != nil {
		return nil, err
	}
	if cfg.Observe != nil {
		// Only a configuration the session accepted gets a timeline — its
		// rings are P × capacity events. The unobserved session goes; the
		// first Run builds the observed one.
		s.EnableObservation(cfg.Observe)
	}
	return s, nil
}

// maxRanks bounds P, and P × Workers. Ranks are goroutines, and every
// driver allocates O(P) — the replication grid, the runtime's tables —
// before it can reject anything, and every rank's force pool starts
// Workers more, so a nonsense count has to stop here.
const maxRanks = 1 << 20

// validate rejects, on a defaulted configuration, what no driver may be
// handed: values the box, the law or the grid constructors would panic
// on or allocate for, and a boundary, potential, timestep or law
// parameter no run is defined for. New and Load share it — a checkpoint
// header is outside input like any other. What depends on the
// algorithm's divisibility rules is the session constructor's to reject.
func (c Config) validate() error {
	if c.N <= 0 {
		return fmt.Errorf("nbody: config needs N > 0")
	}
	if c.Workers < 0 {
		return fmt.Errorf("nbody: negative worker count %d", c.Workers)
	}
	if w := max(1, c.Workers); c.P > maxRanks/w {
		return fmt.Errorf("nbody: implausible goroutine count: %d ranks × %d workers (at most %d)", c.P, w, maxRanks)
	}
	if c.Dim != 1 && c.Dim != 2 {
		return fmt.Errorf("nbody: dimension must be 1 or 2, got %d", c.Dim)
	}
	if !finitePositive(c.BoxLength) {
		return fmt.Errorf("nbody: box length %g is not a positive finite number", c.BoxLength)
	}
	if !(c.Cutoff >= 0 && c.Cutoff <= c.BoxLength) {
		return fmt.Errorf("nbody: cutoff %g outside [0, box length %g]", c.Cutoff, c.BoxLength)
	}
	if c.Clusters < 0 || c.Clusters > c.N {
		return fmt.Errorf("nbody: cluster count %d outside [0, N=%d]", c.Clusters, c.N)
	}
	if c.Clusters > 0 && (math.IsNaN(c.ClusterSigma) || math.IsInf(c.ClusterSigma, 0)) {
		return fmt.Errorf("nbody: cluster width %g is not a finite number", c.ClusterSigma)
	}
	if c.Boundary != Reflective && c.Boundary != Periodic {
		return fmt.Errorf("nbody: unknown boundary %v", c.Boundary)
	}
	if c.Potential != RepulsivePotential && c.Potential != LennardJonesPotential {
		return fmt.Errorf("nbody: unknown potential %v", c.Potential)
	}
	switch {
	case !finitePositive(c.DT):
		return fmt.Errorf("nbody: timestep DT %g is not a positive finite number", c.DT)
	case !finitePositive(c.ForceK):
		return fmt.Errorf("nbody: ForceK %g is not a positive finite number", c.ForceK)
	case c.Potential == LennardJonesPotential && !(finitePositive(c.Epsilon) && finitePositive(c.Sigma)):
		return fmt.Errorf("nbody: Lennard-Jones Epsilon %g and Sigma %g must be positive finite numbers", c.Epsilon, c.Sigma)
	case !(c.Softening >= 0) || math.IsInf(c.Softening, 1):
		return fmt.Errorf("nbody: Softening %g is not a non-negative finite number", c.Softening)
	}
	if alg := c.resolveAlgorithm(); alg == CACutoff && c.Cutoff == 0 {
		return fmt.Errorf("nbody: %v requires a positive cutoff", alg)
	}
	if c.Proc != nil && c.Proc.WorldSize() != c.P {
		return fmt.Errorf("nbody: P=%d but the process mesh spans %d ranks (%d procs × %d per proc)",
			c.P, c.Proc.WorldSize(), c.Proc.NumProcs(), c.Proc.RanksPerProc())
	}
	return nil
}

// finitePositive reports whether v is a finite number above zero.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// initialParticles builds the deterministic initial particle set the
// configuration describes; VerifySerial rebuilds the same set for the
// reference trajectory.
func (c Config) initialParticles() []Particle {
	box := c.box()
	switch {
	case c.Clusters > 0:
		sigma := c.ClusterSigma
		if sigma <= 0 {
			sigma = c.BoxLength / 16
		}
		return phys.InitClustered(c.N, box, c.Clusters, sigma, c.Seed)
	case c.Lattice:
		return phys.InitLattice(c.N, box, c.Seed)
	default:
		return phys.InitUniform(c.N, box, c.Seed)
	}
}

// build constructs the session the configured algorithm runs on, from
// the current particles and with the current observer and recorder. The
// constructor validates and lays out the decomposition on the calling
// goroutine; it starts nothing.
func (s *Simulation) build() error {
	c := s.cfg
	pr := core.Params{
		P:       c.P,
		C:       c.C,
		Law:     c.law(),
		Box:     c.box(),
		DT:      c.DT,
		Options: comm.Options{Observe: s.observer},
		Workers: c.Workers,
		Record:  s.recorder,
		Proc:    c.Proc,
	}
	var err error
	switch c.resolveAlgorithm() {
	case CAAllPairs:
		s.session, err = core.NewAllPairs(s.particles, pr)
	case CACutoff:
		s.session, err = core.NewCutoff(s.particles, pr)
	case ParticleDecomp:
		s.session, err = core.NewParticleDecomposition(s.particles, pr)
	case ForceDecomp:
		s.session, err = core.NewForceDecomposition(s.particles, pr)
	case NaiveAllGather:
		s.session, err = core.NewNaiveAllGather(s.particles, pr)
	default:
		err = fmt.Errorf("nbody: unknown algorithm %v", c.Algorithm)
	}
	return err
}

// Config returns the (defaulted) configuration.
func (s *Simulation) Config() Config { return s.cfg }

// Particles returns a copy of the current particle state, sorted by ID.
func (s *Simulation) Particles() []Particle {
	out := append([]Particle(nil), s.particles...)
	phys.SortByID(out)
	return out
}

// Steps returns the number of timesteps advanced so far.
func (s *Simulation) Steps() int { return s.steps }

// Run advances the simulation by the given number of timesteps using the
// configured parallel algorithm and records the communication report.
// It advances the session the previous Run left, so a Run costs its
// steps. A failed Run changes neither the particles, the step count nor
// the report, and drops the session: the next Run builds a new one from
// the particles the last successful Run left.
func (s *Simulation) Run(steps int) error {
	if steps < 0 {
		return fmt.Errorf("nbody: negative step count %d", steps)
	}
	if s.session == nil {
		if err := s.build(); err != nil {
			return err
		}
	}
	final, rep, err := s.session.Advance(steps)
	if err != nil {
		s.session = nil
		return err
	}
	s.particles = final
	s.report = rep
	s.steps += steps
	return nil
}

// Report returns the communication report of the last Run: per-phase
// critical-path message, byte and time accounting across all ranks. Nil
// before the first Run.
func (s *Simulation) Report() *trace.Report { return s.report }

// VerifySerial runs an independent serial reference (brute force, or
// cell lists when a cutoff is set) from the same initial state for the
// same number of completed steps and returns the worst relative particle
// position deviation. It is the library's end-to-end correctness check.
func (s *Simulation) VerifySerial() (float64, error) {
	cfg := s.cfg
	box := cfg.box()
	law := cfg.law()
	ref := cfg.initialParticles()
	for i := 0; i < s.steps; i++ {
		if cfg.Cutoff > 0 {
			phys.BruteForceCutoff(ref, law, box)
		} else {
			phys.BruteForce(ref, law)
		}
		if err := phys.Step(ref, box, cfg.DT); err != nil {
			return 0, fmt.Errorf("nbody: serial reference: %w", err)
		}
	}
	phys.SortByID(ref)
	got := s.Particles()
	if len(got) != len(ref) {
		return 0, fmt.Errorf("nbody: particle count diverged: %d vs %d", len(got), len(ref))
	}
	var worst float64
	for i := range got {
		if got[i].ID != ref[i].ID {
			return 0, fmt.Errorf("nbody: particle ID mismatch at %d", i)
		}
		if d := got[i].Pos.Dist(ref[i].Pos); d > worst {
			worst = d
		}
	}
	return worst, nil
}
