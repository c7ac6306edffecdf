// Package core implements the paper's communication-avoiding N-body
// algorithms and the baselines they are compared against:
//
//   - NewAllPairs: Algorithm 1, the CA all-pairs interaction algorithm on
//     a c × p/c processor grid (skew, p/c² shifts, force allreduce; every
//     member of a team integrates its own copy of it).
//   - NewCutoff: Algorithm 2 and its multi-dimensional generalization
//     (Section IV), with a spatial team decomposition, shifts modulo the
//     cutoff window, and per-timestep spatial reassignment.
//   - Baselines: Plimpton's particle and force decompositions, which
//     fall out of the CA algorithm at c = 1 and c = √p respectively, and
//     the naive all-gather decomposition (Section II-B).
//
// All algorithms run on the goroutine message-passing runtime in
// internal/comm and are verified against the serial kernels in
// internal/phys. Each has a constructor (NewAllPairs, NewCutoff, ...)
// returning a Session that keeps its ranks' state between Advance
// calls, and every one runs on the one step driver (step.go): a move
// list and a pairing per rank.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/comm"
	"repro/internal/obs/record"
	"repro/internal/phys"
	"repro/internal/topo"
)

// Params configures a parallel run.
type Params struct {
	P       int // number of ranks
	C       int // replication factor, 1 ≤ c ≤ √p (all-pairs) or c ≤ teams (cutoff)
	Law     phys.Law
	Box     phys.Box
	DT      float64 // timestep length
	Options comm.Options
	// Workers is the intra-rank worker-pool width for the force phase:
	// each rank tiles its force accumulation over this many goroutines
	// (disjoint target blocks, bitwise-identical results for any
	// width). 0 spreads GOMAXPROCS evenly across the P ranks, clamped
	// to 1 when P alone already oversubscribes the machine. Negative
	// values are rejected by validation.
	Workers int
	// Record, when non-nil on an observed run, receives one flight-
	// recorder sample per timestep (per-phase walls and traffic, bounds
	// vs measured, runtime health) stamped by world rank 0. Ignored
	// unless Options.Observe is also set — the sampler reads the
	// observer's matrix and metrics.
	Record *record.Recorder
	// Proc, when non-nil, spans the run across the OS processes of a
	// socket mesh (comm.JoinProcs): this process executes only its
	// share of the P ranks and remote traffic travels the wire. Every
	// process of the mesh must call the same driver with the same
	// parameters and input. Nil runs all P ranks in-process.
	Proc *comm.Proc
}

// Teams returns the number of teams p/c.
func (pr Params) Teams() int { return pr.P / pr.C }

// WorkersPerRank resolves the Workers knob to the pool width each rank
// uses: an explicit positive value is taken as-is, 0 spreads
// GOMAXPROCS across the P ranks (P ranks × this many workers ≈ the
// machine), clamped to 1 once the ranks alone cover every core.
func (pr Params) WorkersPerRank() int {
	if pr.Workers > 0 {
		return pr.Workers
	}
	w := runtime.GOMAXPROCS(0) / pr.P
	if w < 1 {
		w = 1
	}
	return w
}

func (pr Params) validateCommon(n int) error {
	if pr.P <= 0 {
		return fmt.Errorf("core: non-positive rank count %d", pr.P)
	}
	if pr.C <= 0 {
		return fmt.Errorf("core: non-positive replication factor %d", pr.C)
	}
	if pr.P%pr.C != 0 {
		return fmt.Errorf("core: c=%d does not divide p=%d", pr.C, pr.P)
	}
	if pr.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", pr.Workers)
	}
	if pr.Proc != nil && pr.Proc.WorldSize() != pr.P {
		return fmt.Errorf("core: p=%d but the process mesh spans %d ranks (%d procs × %d)",
			pr.P, pr.Proc.WorldSize(), pr.Proc.NumProcs(), pr.Proc.RanksPerProc())
	}
	if n <= 0 {
		return fmt.Errorf("core: empty particle set")
	}
	return nil
}

// commGrid is the c × p/c replication grid with the member lists of its
// communicators — one per row (a replication layer, in team order) and
// one per team (a column, leader first) — built once per session. Every
// rank knows the grid, so membership is explicit and making a rank's two
// communicators costs no communication. Comm.Sub keeps the list it is
// given, shared by the members: the lists are never written after this.
type commGrid struct {
	topo.Grid
	rows, teams [][]int
}

func newCommGrid(p, c int) (*commGrid, error) {
	grid, err := topo.NewGrid(p, c)
	if err != nil {
		return nil, err
	}
	g := &commGrid{Grid: grid, rows: make([][]int, grid.Rows), teams: make([][]int, grid.Cols)}
	for r := range g.rows {
		g.rows[r] = grid.RowRanks(r)
	}
	for col := range g.teams {
		g.teams[col] = grid.TeamRanks(col)
	}
	return g, nil
}

// flattenForcesInto appends the force accumulators of ps to dst as
// (x0, y0, x1, y1, ...) for the allreduce, reusing dst's capacity; the
// timestep loops pass retained scratch so the steady-state flatten
// allocates nothing. When that scratch is free to be written again is
// the transport's to say (typedXfer.allreduceForces).
func flattenForcesInto(dst []float64, ps []phys.Particle) []float64 {
	for i := range ps {
		dst = append(dst, ps[i].Force.X, ps[i].Force.Y)
	}
	return dst
}

// applyForces writes reduced force values back into ps.
func applyForces(ps []phys.Particle, forces []float64) {
	if len(forces) != 2*len(ps) {
		panic(fmt.Sprintf("core: force vector length %d for %d particles", len(forces), len(ps)))
	}
	for i := range ps {
		ps[i].Force.X = forces[2*i]
		ps[i].Force.Y = forces[2*i+1]
	}
}
