package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vec"
)

// Midpoint1D runs the midpoint method on a one-dimensional spatial
// decomposition: NewMidpoint1D advanced once.
func Midpoint1D(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
	s, err := NewMidpoint1D(ps, pr)
	return once(s, err, pr.Steps)
}

// Midpoint2D runs the midpoint method on a two-dimensional spatial
// decomposition (p must be a perfect square): NewMidpoint2D advanced
// once.
func Midpoint2D(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
	s, err := NewMidpoint2D(ps, pr)
	return once(s, err, pr.Steps)
}

// NewMidpoint1D prepares a session of the midpoint method on a
// one-dimensional spatial decomposition. See midpointND.
func NewMidpoint1D(ps []phys.Particle, pr Params) (*Session, error) {
	return midpointND(ps, pr, 1)
}

// NewMidpoint2D prepares a session of the midpoint method on a
// two-dimensional spatial decomposition. See midpointND.
func NewMidpoint2D(ps []phys.Particle, pr Params) (*Session, error) {
	return midpointND(ps, pr, 2)
}

// midpointND implements the midpoint method (Bowers, Dror, Shaw — the
// neutral-territory variant the paper surveys in Section II-D): each
// processor owns a spatial cell and computes exactly those pair
// interactions whose *midpoint* falls in its cell. Because a particle is
// at most r_c/2 from the pair midpoint, the import region shrinks to
// ⌈r_c/(2w)⌉ cells per side — half that of a plain spatial
// decomposition — at the price of a second communication phase that
// returns force contributions to the particles' owners.
//
// No replication (pr.C must be 1); reflective boxes only (midpoints are
// ambiguous under periodic wrap); the box dimension must equal dim.
func midpointND(ps []phys.Particle, pr Params, dim int) (*Session, error) {
	n := len(ps)
	pr.C = 1
	if err := pr.validateCommon(n); err != nil {
		return nil, err
	}
	if pr.Law.Cutoff <= 0 {
		return nil, fmt.Errorf("core: midpoint method requires a positive cutoff")
	}
	if pr.Box.Dim != dim {
		return nil, fmt.Errorf("core: midpoint-%dD needs a %dD box, got dim %d", dim, dim, pr.Box.Dim)
	}
	if pr.Box.Boundary != phys.Reflective {
		return nil, fmt.Errorf("core: midpoint method requires reflective boundaries")
	}
	T := pr.P // one team per rank
	tg, err := topo.NewTeamGrid(T, dim)
	if err != nil {
		return nil, err
	}
	w := pr.Box.L / float64(tg.Side)
	mHalf := int(math.Ceil(pr.Law.Cutoff/(2*w) - 1e-12))
	if mHalf < 1 {
		mHalf = 1
	}
	if 2*mHalf+1 > tg.Side {
		return nil, fmt.Errorf("core: midpoint import region 2·%d+1 exceeds grid side %d", mHalf, tg.Side)
	}
	// Import offsets: the Chebyshev half-window without the origin, in a
	// fixed order shared by all ranks.
	var window []topo.Offset
	for _, off := range topo.Serpentine(mHalf, dim) {
		if off != (topo.Offset{}) {
			window = append(window, off)
		}
	}
	dirs := migrationDirs(dim)
	perS, perW := cutoffBounds(n, pr)
	owned := scatterByTeam(ps, pr.Box, tg)

	rc2 := pr.Law.Cutoff * pr.Law.Cutoff
	open := pr.Law
	open.Cutoff = 0
	kern := open.Kernel()

	// The compute phase is the Go staged sweep on every platform.
	return newSession(n, pr, "portable", perS, perW, func(rk *rank) rankLoop {
		world, st := rk.world, rk.st
		me := world.Rank()
		x := newXfer(pr, me, false)
		mine := owned[me]
		var mig migrator
		// Per-step scratch, retained across steps (see phase 1).
		type cellRef struct {
			owner     int
			particles []phys.Particle
		}
		var (
			wire      []byte
			held      = make([][]phys.Particle, 1+len(window))
			cells     []cellRef
			cellStart []int
			// spent holds force-return payloads received earlier. A
			// received slice is the receiver's outright (the
			// ownership-transfer contract in transport.go), so it backs a
			// later send; like the migrator's payloads, the buffers
			// circulate between neighbors instead of being allocated by
			// every sender every step.
			spent [][]float64
		)
		// sweep accumulates the forces on the flat target range [lo, hi)
		// of the step's cells. Built once: the pool retains the function
		// it runs, so a closure made per step would be a per-step
		// allocation.
		sweep := func(lo, hi, _ int) int64 {
			// Locate the cell holding global target lo, then walk.
			ci := sort.SearchInts(cellStart, lo+1) - 1
			li := lo - cellStart[ci]
			var pairs int64
			// The eligibility gates (identity, midpoint ownership, cutoff)
			// stay per-pair branches — they decide which sources interact
			// at all — but an eligible pair's displacement and squared
			// distance, the values the cutoff test computed, are staged
			// and folded through the kernel's staged sweep. Flushing when
			// the scratch is full only groups consecutive adds of the same
			// in-order fold, so the result is the per-pair loop's, bit for
			// bit.
			var staging phys.Staged
			for g := lo; g < hi; g++ {
				for li >= len(cells[ci].particles) {
					ci++
					li = 0
				}
				t := &cells[ci].particles[li]
				f := t.Force
				staged := 0
				for b := range cells {
					pb := cells[b].particles
					for j := range pb {
						s := &pb[j]
						if t.ID == s.ID {
							continue
						}
						mid := t.Pos.Add(s.Pos).Scale(0.5)
						if teamOfPos(mid, pr.Box, tg) != me {
							continue
						}
						dx, dy := t.Pos.X-s.Pos.X, t.Pos.Y-s.Pos.Y
						d2 := dx*dx + dy*dy
						if d2 > rc2 {
							continue
						}
						staging.DX[staged], staging.DY[staged], staging.D2[staged] = dx, dy, d2
						staged++
						pairs++
						if staged == vec.TileCap {
							f.X, f.Y = kern.SweepStaged(f.X, f.Y, &staging, staged)
							staged = 0
						}
					}
				}
				if staged > 0 {
					f.X, f.Y = kern.SweepStaged(f.X, f.Y, &staging, staged)
				}
				t.Force = f
				li++
			}
			return pairs
		}

		step := func() error {
			// (1) Import: exchange cells with every neighbor in the
			// half-window. The imported cells are decoded into buffers
			// retained across steps, one per importing direction. So is
			// the encode buffer: every neighbor it is sent to decodes it
			// on receipt and later returns forces, which this rank
			// collects before it encodes again.
			st.SetPhase(trace.Shift)
			wire = phys.AppendSlice(wire[:0], mine)
			cells = cells[:0]
			for d, off := range window {
				to, toOK := tg.Neighbor(me, off.DX, off.DY, false)
				from, fromOK := tg.Neighbor(me, -off.DX, -off.DY, false)
				if toOK {
					world.Send(to, tagShift+d, wire)
				}
				if fromOK {
					var err error
					held[d+1], err = phys.DecodeSliceInto(held[d+1][:0], world.Recv(from, tagShift+d))
					if err != nil {
						return err
					}
					cells = append(cells, cellRef{from, held[d+1]})
				}
			}

			// (2) Compute every pair whose midpoint lies in my cell. The
			// traversal is target-major: each target sums open.Pair over
			// every other held particle whose pair midpoint is mine. That
			// evaluates both ordered directions of each pair (the
			// symmetric half-traversal would halve the work) but makes
			// each target's accumulator exclusively its own, so the pool
			// can tile the flat target index space by disjoint ranges and
			// the result is bitwise-identical for any worker count —
			// Pair is bitwise antisymmetric and the midpoint/cutoff/ID
			// guards are symmetric, so per-particle sums match the
			// half-traversal to rounding (the method's accuracy tests are
			// tolerance-based).
			st.SetPhase(trace.Compute)
			held[0] = append(held[0][:0], mine...)
			cells = append(cells, cellRef{me, held[0]})
			for _, cell := range cells {
				phys.ClearForces(cell.particles)
			}
			slices.SortFunc(cells, func(a, b cellRef) int { return cmp.Compare(a.owner, b.owner) })
			// Prefix sums give every particle a global target index the
			// pool can partition.
			cellStart = append(cellStart[:0], 0)
			for ci := range cells {
				cellStart = append(cellStart, cellStart[ci]+len(cells[ci].particles))
			}
			rk.pool.Run(cellStart[len(cells)], sweep)
			rk.po.stampBatch()

			// (3) Export: return force contributions to their owners and
			// sum contributions arriving for my cell, in window order.
			st.SetPhase(trace.Reduce)
			phys.ClearForces(mine)
			for _, cell := range cells {
				if cell.owner == me {
					for i := range mine {
						mine[i].Force = mine[i].Force.Add(cell.particles[i].Force)
					}
				}
			}
			for d, off := range window {
				to, toOK := tg.Neighbor(me, off.DX, off.DY, false)
				from, fromOK := tg.Neighbor(me, -off.DX, -off.DY, false)
				if toOK {
					var payload []float64
					if last := len(spent) - 1; last >= 0 {
						payload, spent = spent[last][:0], spent[:last]
					}
					for _, cell := range cells {
						if cell.owner == to {
							payload = flattenForcesInto(payload, cell.particles)
							break
						}
					}
					world.SendF64s(to, tagReduceBack+d, payload)
				}
				if fromOK {
					contrib := world.RecvF64s(from, tagReduceBack+d)
					if len(contrib) != 2*len(mine) {
						return fmt.Errorf("core: midpoint force return of %d values for %d particles", len(contrib), len(mine))
					}
					for i := range mine {
						mine[i].Force.X += contrib[2*i]
						mine[i].Force.Y += contrib[2*i+1]
					}
					if cap(contrib) > 0 {
						spent = append(spent, contrib)
					}
				}
			}

			// (4) Integrate and migrate.
			st.SetPhase(trace.Compute)
			if err := phys.Step(mine, pr.Box, pr.DT); err != nil {
				return err
			}
			st.SetPhase(trace.Reassign)
			var err error
			mine, err = mig.migrate(x, world, tg, me, mine, pr.Box, dirs, false)
			return err
		}
		return rankLoop{step, func() (int, []phys.Particle, bool) { return me, mine, true }}
	}), nil
}

// tagReduceBack tags the midpoint method's force-return messages.
const tagReduceBack = 5000
