// Package model is the analytic performance model that regenerates the
// paper's evaluation figures at machine scales a laptop cannot execute
// (up to 24K Hopper cores and 32K Intrepid cores).
//
// The model prices one timestep of each algorithm as the sum of the
// paper's phase breakdown — computation, team broadcast, skew, shift
// steps, force reduction and (for cutoff runs) spatial reassignment —
// using the machine descriptions of internal/machine and the real torus
// rank placement of internal/topo for hop distances. Collectives are
// priced as binomial trees with a per-member software overhead term;
// that term is what makes collectives scale worse than logarithmically
// and reproduces the paper's observation that the best replication
// factor is interior (c = 16 on 24K Hopper cores) rather than the
// theoretical maximum √p.
//
// The event-driven simulator in internal/netsim and the instrumented
// goroutine runtime in internal/comm cross-validate this model at small
// scale (see `nbody validate`, in cmd/nbody).
package model

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/topo"
)

// Algorithm selects which parallel algorithm the model prices.
type Algorithm int

const (
	// AllPairs is Algorithm 1 (no cutoff).
	AllPairs Algorithm = iota
	// Cutoff1D is Algorithm 2 on a one-dimensional spatial
	// decomposition.
	Cutoff1D
	// Cutoff2D is the serpentine generalization on a two-dimensional
	// decomposition.
	Cutoff2D
	// Cutoff3D extends the serpentine generalization to three
	// dimensions, the case Section IV-C motivates ("communication
	// avoidance becomes especially important in higher dimensions
	// because the number of neighbors is exponential in the
	// dimensionality"). The repository's executable algorithms cover 1D
	// and 2D like the paper's experiments; 3D is modeled.
	Cutoff3D
	// NaiveTree is the c = 1 whole-partition allgather offloaded to a
	// dedicated collective network — the "c=1 (tree)" bars of
	// Figures 2c and 2d. Only valid on machines with a hardware tree.
	NaiveTree
)

func (a Algorithm) String() string {
	switch a {
	case AllPairs:
		return "all-pairs"
	case Cutoff1D:
		return "cutoff-1d"
	case Cutoff2D:
		return "cutoff-2d"
	case Cutoff3D:
		return "cutoff-3d"
	case NaiveTree:
		return "naive-tree"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config is one model evaluation point.
type Config struct {
	Machine machine.Machine
	Alg     Algorithm
	P       int // ranks
	N       int // particles
	C       int // replication factor
	// RcFrac is the cutoff radius as a fraction of the box length; the
	// paper's experiments use 1/4. Ignored by AllPairs and NaiveTree.
	RcFrac float64
	// TopologyAware enables the bidirectional-torus shift optimization
	// of Section III-C (row broadcasts instead of point-to-point
	// shifts), which halves effective shift bytes on bidirectional
	// tori. The paper enables it for Intrepid all-pairs runs only.
	TopologyAware bool
}

// Breakdown is the per-timestep phase cost in seconds, mirroring the
// stacked bars of Figures 2 and 6.
type Breakdown struct {
	Compute  float64
	Bcast    float64
	Skew     float64
	Shift    float64
	Reduce   float64
	Reassign float64
}

// Comm returns the total communication time (everything but Compute).
func (b Breakdown) Comm() float64 {
	return b.Bcast + b.Skew + b.Shift + b.Reduce + b.Reassign
}

// Total returns the full timestep time.
func (b Breakdown) Total() float64 { return b.Compute + b.Comm() }

const (
	forceBytesPer = 16 // two float64 force components
	// migrationDrift is the calibrated fraction of a team width that
	// particles drift per timestep; it sets reassignment volume.
	migrationDrift = 0.002
)

// Evaluate prices one timestep of cfg. It returns an error for
// infeasible configurations (c not dividing p, c beyond √p for
// all-pairs, cutoff windows larger than the team grid, NaiveTree without
// hardware support).
func Evaluate(cfg Config) (Breakdown, error) {
	if cfg.P <= 0 || cfg.N <= 0 || cfg.C <= 0 {
		return Breakdown{}, fmt.Errorf("model: non-positive parameters p=%d n=%d c=%d", cfg.P, cfg.N, cfg.C)
	}
	if cfg.P%cfg.C != 0 {
		return Breakdown{}, fmt.Errorf("model: c=%d does not divide p=%d", cfg.C, cfg.P)
	}
	if err := checkMemory(cfg); err != nil {
		return Breakdown{}, err
	}
	switch cfg.Alg {
	case AllPairs:
		if cfg.C*cfg.C > cfg.P {
			return Breakdown{}, fmt.Errorf("model: all-pairs needs c ≤ √p, got c=%d p=%d", cfg.C, cfg.P)
		}
		return evalAllPairs(cfg), nil
	case NaiveTree:
		if cfg.C != 1 {
			return Breakdown{}, fmt.Errorf("model: naive-tree is a c=1 configuration, got c=%d", cfg.C)
		}
		if !cfg.Machine.HWTree {
			return Breakdown{}, fmt.Errorf("model: %s has no hardware collective network", cfg.Machine.Name)
		}
		return evalNaiveTree(cfg), nil
	case Cutoff1D:
		return evalCutoff(cfg, 1)
	case Cutoff2D:
		return evalCutoff(cfg, 2)
	case Cutoff3D:
		return evalCutoff(cfg, 3)
	default:
		return Breakdown{}, fmt.Errorf("model: unknown algorithm %v", cfg.Alg)
	}
}

// workingSetFactor is how many live copies of the replicated team data a
// rank holds during a timestep: the team copy, the travelling exchange
// buffer, and the force-reduction buffer.
const workingSetFactor = 3

// checkMemory rejects configurations whose replicated working set,
// workingSetFactor · (c·n/p) · 52 bytes (Equation 4 in bytes), exceeds
// the machine's per-rank memory. This is the constraint that makes the
// replication factor a memory-limited tuning parameter in the first
// place.
func checkMemory(cfg Config) error {
	if cfg.Machine.MemoryPerRank <= 0 {
		return nil
	}
	need := workingSetFactor * float64(cfg.C) * float64(cfg.N) / float64(cfg.P) * phys.WireSize
	if need > cfg.Machine.MemoryPerRank {
		return fmt.Errorf("model: replication c=%d needs %.3g B/rank, exceeding %s's %.3g B",
			cfg.C, need, cfg.Machine.Name, cfg.Machine.MemoryPerRank)
	}
	return nil
}

// MaxFeasibleC returns the largest replication factor whose working set
// fits in memBytes per rank for n particles on p ranks (at least 1).
func MaxFeasibleC(n, p int, memBytes float64) int {
	c := int(memBytes / (workingSetFactor * float64(n) / float64(p) * phys.WireSize))
	if c < 1 {
		c = 1
	}
	return c
}

// collective prices a binomial-tree collective over a team of c ranks
// whose members are strided by strideRanks in rank space, moving msg
// bytes per stage, plus the super-logarithmic contention penalty. c = 1
// costs nothing.
func collective(m machine.Machine, tor topo.Torus, p, c, strideRanks, msg int) float64 {
	if c <= 1 {
		return 0
	}
	stages := int(math.Ceil(math.Log2(float64(c))))
	t := 0.5 * m.CollectivePenalty(c, p) // half per collective; bcast+reduce pair sums to the full penalty
	for j := 0; j < stages; j++ {
		delta := (1 << j) * strideRanks % p
		t += m.CollAlpha + m.P2PTime(tor, 0, delta, msg)
	}
	return t
}

func evalAllPairs(cfg Config) Breakdown {
	m, p, n, c := cfg.Machine, cfg.P, cfg.N, cfg.C
	tor := m.TorusFor(p)
	T := p / c
	npt := float64(n) / float64(T) // particles per team (= nc/p)
	partBytes := int(math.Ceil(npt * phys.WireSize))
	forceBytes := int(math.Ceil(npt * forceBytesPer))

	var b Breakdown
	b.Compute = float64(n) / float64(p) * float64(n) * m.InteractionTime

	b.Bcast = collective(m, tor, p, c, T, partBytes)
	b.Reduce = collective(m, tor, p, c, T, forceBytes)

	if T > 1 && c > 1 {
		// Worst-row skew: shift by c-1 columns.
		b.Skew = m.SendrecvTime(tor, 0, (c-1)%T, partBytes)
	}
	if T > 1 && c < T {
		steps := p / (c * c)
		bytes := partBytes
		if cfg.TopologyAware && m.Bidirectional {
			// Row broadcasts exploit both torus directions: effective
			// shift bandwidth doubles (Section III-C).
			bytes /= 2
		}
		b.Shift = float64(steps) * m.SendrecvTime(tor, 0, c%p, bytes)
	}
	return b
}

func evalNaiveTree(cfg Config) Breakdown {
	m, p, n := cfg.Machine, cfg.P, cfg.N
	var b Breakdown
	b.Compute = float64(n) / float64(p) * float64(n) * m.InteractionTime
	// Whole-partition allgather of all particle data over the dedicated
	// tree network: pipelined payload at tree bandwidth plus per-stage
	// startup down the physical tree depth.
	depth := math.Ceil(math.Log2(float64(p)))
	b.Shift = m.HWTreeAlpha*depth + float64(n)*phys.WireSize*m.HWTreeBeta
	return b
}

func evalCutoff(cfg Config, dim int) (Breakdown, error) {
	m, p, n, c := cfg.Machine, cfg.P, cfg.N, cfg.C
	if cfg.RcFrac <= 0 || cfg.RcFrac > 0.5 {
		return Breakdown{}, fmt.Errorf("model: cutoff fraction %g outside (0, 0.5]", cfg.RcFrac)
	}
	tor := m.TorusFor(p)
	T := p / c
	side := math.Pow(float64(T), 1/float64(dim))
	mSpan := int(math.Ceil(cfg.RcFrac*side - 1e-9))
	if mSpan < 1 {
		mSpan = 1
	}
	if float64(2*mSpan+1) > side {
		return Breakdown{}, fmt.Errorf("model: cutoff window 2m+1=%d exceeds team grid side %.0f (c=%d too large)", 2*mSpan+1, side, c)
	}
	window := math.Pow(2*float64(mSpan)+1, float64(dim))
	if float64(c) > window {
		return Breakdown{}, fmt.Errorf("model: c=%d exceeds the %g-team cutoff window", c, window)
	}
	steps := math.Ceil(window / float64(c))
	npt := float64(n) / float64(T)
	partBytes := int(math.Ceil(npt * phys.WireSize))
	forceBytes := int(math.Ceil(npt * forceBytesPer))

	var b Breakdown
	// Interior teams see the full window; the ceil captures layer-load
	// imbalance when c does not divide the window.
	b.Compute = steps * npt * npt * m.InteractionTime

	b.Bcast = collective(m, tor, p, c, T, partBytes)
	b.Reduce = collective(m, tor, p, c, T, forceBytes)

	// Skew reaches up to m teams away in every grid dimension.
	skewDelta := mSpan
	for d := 1; d < dim; d++ {
		skewDelta = skewDelta*int(side) + mSpan
	}
	b.Skew = m.SendrecvTime(tor, 0, skewDelta%p, partBytes)

	// Shift steps move c serpentine positions, a short vector in the
	// team grid; plus the boundary-induced wait: lightly loaded edge
	// teams idle while interior teams finish computing before sending
	// (the paper's explanation for shift costs stagnating with c).
	if steps > 1 {
		b.Shift = (steps - 1) * m.SendrecvTime(tor, 0, c%p, partBytes)
	}
	avgW := averageWindow(mSpan, side, dim)
	b.Shift += (window - avgW) / float64(c) * npt * npt * m.InteractionTime

	// Reassignment: leaders exchange migrants with each of their
	// 3^dim − 1 Chebyshev neighbors (2 in 1D, 8 in 2D), plus
	// per-particle re-bucketing work; migrant volume is the drift
	// fraction of a team width. The neighbor term prices the exchange
	// of the paper's machines, not this code's: internal/core's
	// migrator sends 2·dim messages a step, one stage per axis, and
	// forwards diagonal migrants (the same 2 in 1D, 4 in 2D). The
	// formula, and the committed results/ figures it produces, are
	// left as they are.
	migr := math.Min(1, migrationDrift*side)
	migrBytes := int(math.Ceil(migr * npt * phys.WireSize))
	neighbors := intPow(3, dim) - 1
	b.Reassign = float64(neighbors)*m.SendrecvTime(tor, 0, 1, migrBytes) + npt*reassignPerParticle
	return b, nil
}

func intPow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// reassignPerParticle is the calibrated per-particle cost of
// re-bucketing during spatial reassignment (classification, copy,
// re-sort), in seconds.
const reassignPerParticle = 1.0e-7

// averageWindow returns the mean number of in-grid import-region teams
// over all teams of a reflective (non-wrapping) grid: boundary teams see
// truncated windows. Per dimension the mean is (2m+1) − m(m+1)/side; the
// dimensions factor.
func averageWindow(m int, side float64, dim int) float64 {
	per := (2*float64(m) + 1) - float64(m)*float64(m+1)/side
	return math.Pow(per, float64(dim))
}

// SerialTime returns the one-core reference time used by the
// strong-scaling efficiency plots: the full interaction count at the
// machine's per-interaction rate. For cutoff runs the reference uses the
// same Chebyshev-window interaction count as the parallel algorithm, so
// efficiency differences reflect parallelization costs, not window
// quantization.
func SerialTime(cfg Config) float64 {
	n := float64(cfg.N)
	switch cfg.Alg {
	case Cutoff1D:
		return 2 * cfg.RcFrac * n * n * cfg.Machine.InteractionTime
	case Cutoff2D:
		k := 2 * cfg.RcFrac
		return k * k * n * n * cfg.Machine.InteractionTime
	case Cutoff3D:
		k := 2 * cfg.RcFrac
		return k * k * k * n * n * cfg.Machine.InteractionTime
	default:
		return n * n * cfg.Machine.InteractionTime
	}
}

// Efficiency returns the strong-scaling parallel efficiency of cfg
// relative to one core: T_serial / (p · T_step).
func Efficiency(cfg Config) (float64, error) {
	b, err := Evaluate(cfg)
	if err != nil {
		return 0, err
	}
	return SerialTime(cfg) / (float64(cfg.P) * b.Total()), nil
}
