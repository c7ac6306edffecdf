package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vec"
)

// SpanFor returns m, the number of team widths spanned by the cutoff
// radius (Equation 6): the smallest m such that every pair within rc
// lies in teams at Chebyshev distance at most m.
func SpanFor(rc, boxL float64, side int) int {
	w := boxL / float64(side)
	m := int(math.Ceil(rc/w - 1e-12))
	if m < 1 {
		m = 1
	}
	return m
}

// Cutoff runs the communication-avoiding distance-limited interaction
// algorithm (Algorithm 2 for 1D boxes, its serpentine generalization for
// 2D boxes) for pr.Steps timesteps. Teams own spatial regions of the
// box; each timestep broadcasts team particles over the replication
// dimension, shifts exchange buffers through the cutoff window with
// stride c, reduces force contributions, integrates, and spatially
// reassigns migrating particles between neighboring teams.
//
// Requirements: pr.Law.Cutoff > 0; for 2D boxes the team count p/c must
// be a perfect square; the cutoff window (2m+1 teams per dimension) must
// fit inside the team grid; and c may not exceed the window size.
func Cutoff(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
	n := len(ps)
	if err := pr.validateCommon(n); err != nil {
		return nil, nil, err
	}
	if pr.Law.Cutoff <= 0 {
		return nil, nil, fmt.Errorf("core: cutoff algorithm requires a positive cutoff radius")
	}
	T := pr.Teams()
	tg, err := topo.NewTeamGrid(T, pr.Box.Dim)
	if err != nil {
		return nil, nil, err
	}
	m := SpanFor(pr.Law.Cutoff, pr.Box.L, tg.Side)
	if 2*m+1 > tg.Side {
		return nil, nil, fmt.Errorf("core: cutoff window 2m+1=%d exceeds team grid side %d (cutoff too large for this decomposition)", 2*m+1, tg.Side)
	}
	sched, err := NewCutoffSchedule(m, pr.C, pr.Box.Dim)
	if err != nil {
		return nil, nil, err
	}
	grid, err := topo.NewGrid(pr.P, pr.C)
	if err != nil {
		return nil, nil, err
	}
	wrap := pr.Box.Boundary == phys.Periodic
	dirs := migrationDirs(pr.Box.Dim)
	perS, perW := cutoffBounds(n, pr)
	owned := scatterByTeam(ps, pr.Box, tg)

	rr := newRunRecorder(pr)
	report, results, err := comm.RunProc(pr.P, pr.Options, pr.Proc, func(world *comm.Comm) error {
		rank := world.Rank()
		layer, team := grid.Coord(rank)
		st := world.Stats()

		// Communicators: layerComm for shifts (same layer, indexed by
		// team), teamComm for broadcast/reduce (same team, leader
		// first). Migration runs between the team leaders, the layer-0
		// ranks indexed by team: that is layer 0's layerComm.
		layerComm, teamComm := gridComms(world, grid)

		var mine []phys.Particle
		if layer == 0 {
			mine = owned[team]
		}

		st.StartTiming()
		defer st.StopTiming()

		// Per-step metrics, mirroring the all-pairs loop: step wall
		// time from rank 0, per-rank per-step compute time from every
		// rank (its max/mean is the spatial-imbalance signal the cutoff
		// algorithm's boundary effects show up in).
		mx := world.Metrics()
		stepWall := mx.Histogram("step.wall_ns")
		stepCompute := mx.Histogram("step.compute_ns")
		stepsDone := mx.Counter("step.count")
		pairEvals := mx.Counter("compute.pairs")
		observed := mx != nil
		probe := newStepProbe(world, perS, perW)
		sampler := rr.sampler(world, pr.Steps)

		// Per-rank fast-path state, built once per run: specialized
		// kernel, the transport's retained buffers (see transport.go
		// for the exchange reuse discipline), the migrator's reassignment
		// buffers, and the force pool with its parked workers. The pool
		// tiles the import-region accumulation by disjoint target blocks
		// (bitwise-identical for any worker count); under Overlap its
		// workers read the held buffer while the next shift is in flight.
		kern := pr.Law.Kernel().WithTile(pr.Tile)
		pool := phys.NewPool(pr.WorkersPerRank())
		defer pool.Close()
		po := newPoolObs(pool, st, mx)
		x := newXfer(pr.Encoded, team, pr.Overlap)
		var mig migrator
		var teamCopy []phys.Particle
		update := func() error {
			srcTeam, visiting, err := x.view()
			if err != nil {
				return err
			}
			if !withinWindow(tg, team, srcTeam, m, wrap) {
				return nil // aliased buffer from beyond a reflective edge
			}
			st.SetPhase(trace.Compute)
			pairEvals.Add(pool.AccumulateIn(kern, teamCopy, visiting, pr.Box))
			po.stampBatch()
			return nil
		}
		// The layer's moves are constants of the run: resolve each step's
		// neighbours once (ok is false where the buffer stays put).
		steps := sched.Steps(layer)
		type hop struct {
			to, from int
			ok       bool
		}
		hops := make([]hop, steps)
		for i := range hops {
			if mv := sched.Move(layer, i); mv != (topo.Offset{}) {
				to, _ := tg.Neighbor(team, mv.DX, mv.DY, true)
				from, _ := tg.Neighbor(team, -mv.DX, -mv.DY, true)
				hops[i] = hop{to, from, to != team}
			}
		}

		for step := 0; step < pr.Steps; step++ {
			var t0 time.Time
			var computeBefore time.Duration
			if observed {
				t0 = time.Now()
				computeBefore = st.ByPhase[trace.Compute].Time
			}
			// (1) Broadcast St within the team.
			st.SetPhase(trace.Broadcast)
			var lead []phys.Particle
			if layer == 0 {
				lead = mine
			}
			var err error
			teamCopy, err = x.bcastTeam(teamComm, lead)
			if err != nil {
				return err
			}

			// (2) The exchange buffer carries its true source team so
			// receivers can reject aliased buffers near reflective
			// boundaries.
			x.loadExchange(teamCopy)

			// (3)+(4) Skew, then shift through the cutoff window with
			// stride c. In overlap mode the buffer for step i+1 is
			// shipped before computing on step i's buffer, so the
			// transfer hides behind the force evaluation (the payload is
			// only read on both sides).
			for i := 0; i < steps; i++ {
				if i == 0 {
					st.SetPhase(trace.Skew)
					if h := hops[0]; h.ok {
						x.shift(layerComm, h.to, h.from, tagShift)
					}
				}
				st.SetPhase(trace.Shift)
				pending := false
				if pr.Overlap && i+1 < steps {
					if h := hops[i+1]; h.ok {
						x.startShift(layerComm, h.to, h.from, tagShift+i+1)
						pending = true
					}
				}
				if err := update(); err != nil {
					return err
				}
				st.SetPhase(trace.Shift)
				if pending {
					x.finishShift()
				} else if !pr.Overlap && i+1 < steps {
					if h := hops[i+1]; h.ok {
						x.shift(layerComm, h.to, h.from, tagShift+i+1)
					}
				}
			}

			// (5) Sum-reduce the team's force contributions.
			st.SetPhase(trace.Reduce)
			total := x.reduceForces(teamComm, teamCopy)

			if layer == 0 {
				applyForces(mine, total)
				st.SetPhase(trace.Compute)
				phys.Step(mine, pr.Box, pr.DT)

				// (6) Spatial reassignment between neighboring teams.
				st.SetPhase(trace.Reassign)
				mine, err = mig.migrate(x, layerComm, tg, team, mine, pr.Box, dirs, wrap)
				if err != nil {
					return err
				}
			}
			st.SetPhase(trace.Other)
			po.stampStep()
			probe.stampStep()
			if observed {
				stepCompute.Observe(int64(st.ByPhase[trace.Compute].Time - computeBefore))
				if rank == 0 {
					wall := time.Since(t0)
					stepWall.Observe(wall.Nanoseconds())
					stepsDone.Inc()
					sampler.stampStep(wall)
				}
			}
		}

		if layer == 0 {
			world.Deposit(team, mine)
		}
		return nil
	})
	stampReport(report, perS, perW, pr.Steps)
	rr.finish(report)
	if err != nil {
		return nil, report, err
	}
	return gatherResults(results, n), report, nil
}

// teamOfPos returns the team owning a position: the spatial cell of the
// team grid containing it, clamped to the grid at the box edge.
func teamOfPos(pos vec.Vec2, box phys.Box, tg topo.TeamGrid) int {
	w := box.L / float64(tg.Side)
	cx := clampCell(int(pos.X/w), tg.Side)
	if tg.Dim == 1 {
		return tg.Team(cx, 0)
	}
	cy := clampCell(int(pos.Y/w), tg.Side)
	return tg.Team(cx, cy)
}

func clampCell(c, side int) int {
	if c < 0 {
		return 0
	}
	if c >= side {
		return side - 1
	}
	return c
}

// withinWindow reports whether src's buffer should be applied by team:
// the teams must be within Chebyshev distance m, unwrapped for
// reflective boxes (a wrapped delivery means the buffer aliased around
// the data-movement torus and must be skipped).
func withinWindow(tg topo.TeamGrid, team, src, m int, wrap bool) bool {
	return tg.ChebyshevDist(team, src, wrap) <= m
}

// frameTeam prefixes the encoded particle payload with its source team.
func frameTeam(team int, body []byte) []byte {
	return appendFrameTeam(make([]byte, 0, 4+len(body)), team, body)
}

// appendFrameTeam is frameTeam appending into dst, reusing its capacity;
// the timestep loop passes a retained exchange buffer as dst[:0] so the
// steady-state frame allocates nothing.
func appendFrameTeam(dst []byte, team int, body []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(team))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

func unframeTeam(b []byte) (int, []byte) {
	if len(b) < 4 {
		panic(fmt.Sprintf("core: malformed exchange frame of %d bytes", len(b)))
	}
	return int(binary.LittleEndian.Uint32(b)), b[4:]
}

// migrationDirs lists the neighbor directions particles can migrate
// toward in one timestep, in a fixed order shared by all leaders.
func migrationDirs(dim int) []topo.Offset {
	if dim == 1 {
		return []topo.Offset{{DX: -1}, {DX: 1}}
	}
	var out []topo.Offset
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			out = append(out, topo.Offset{DX: dx, DY: dy})
		}
	}
	return out
}

// scatterByTeam buckets the initial particles by owning team in one
// pass over the input, so that no rank scans particles it will not own.
// The buckets share one backing array; each is capped at its length,
// so a team that grows reallocates instead of writing into its
// neighbor.
func scatterByTeam(ps []phys.Particle, box phys.Box, tg topo.TeamGrid) [][]phys.Particle {
	starts := make([]int, tg.Teams()+1)
	for i := range ps {
		starts[teamOfPos(ps[i].Pos, box, tg)+1]++
	}
	for t := 0; t < tg.Teams(); t++ {
		starts[t+1] += starts[t]
	}
	backing := make([]phys.Particle, len(ps))
	owned := make([][]phys.Particle, tg.Teams())
	for t := range owned {
		owned[t] = backing[starts[t]:starts[t]:starts[t+1]]
	}
	for i := range ps {
		t := teamOfPos(ps[i].Pos, box, tg)
		owned[t] = append(owned[t], ps[i])
	}
	return owned
}

// migrator is one leader's spatial-reassignment state, retained across
// steps so that the steady state allocates nothing: the outgoing
// particles are bucketed by direction in a fixed array, the team is
// rebuilt in a buffer double-buffered against the current one, and the
// payloads received in one step are the send buffers of later ones.
type migrator struct {
	out [8][]phys.Particle // by index into migrationDirs
	// spare is the previous team buffer, the target of the next rebuild.
	// The current one cannot be rebuilt in place while incoming
	// particles are appended behind the stayers, and the previous one is
	// free: its last readers, the team members copying the broadcast,
	// finished before the force reduction of the step it was sent in.
	spare []phys.Particle
	// free holds payloads received in earlier steps. A received slice
	// is the receiver's outright (the ownership-transfer contract in
	// transport.go), so it backs a later send; buffers circulate between
	// neighbors instead of being allocated by every sender every step.
	free [][]phys.Particle
}

// dirIndex is the position of a Chebyshev-unit offset in
// migrationDirs(dim).
func dirIndex(off topo.Offset, dim int) int {
	if dim == 1 {
		return (off.DX + 1) / 2
	}
	i := (off.DY+1)*3 + off.DX + 1
	if i > 4 {
		i-- // the origin is not a direction
	}
	return i
}

// migrate exchanges particles that left the team's spatial region with
// the neighboring teams over the given transport and returns the updated
// local set (in a different buffer than mine, which the migrator keeps
// for the next step). Typed sends transfer their payload outright.
// Particles may move at most one team width per step; exceeding that is
// reported as an error (the timestep is too large for the
// decomposition).
func (mg *migrator) migrate(x xfer, leaders *comm.Comm, tg topo.TeamGrid, team int, mine []phys.Particle, box phys.Box, dirs []topo.Offset, wrap bool) ([]phys.Particle, error) {
	tx, ty := tg.Coord(team)
	merged := mg.spare[:0]
	for i := range mine {
		dst := teamOfPos(mine[i].Pos, box, tg)
		if dst == team {
			merged = append(merged, mine[i])
			continue
		}
		dx, dy := tg.Coord(dst)
		off := topo.Offset{DX: dx - tx, DY: dy - ty}
		if wrap {
			off.DX = wrapStep(off.DX, tg.Side)
			off.DY = wrapStep(off.DY, tg.Side)
		}
		if off.Chebyshev() > 1 {
			return nil, fmt.Errorf("core: particle %d migrated %d team widths in one step; reduce dt or enlarge teams", mine[i].ID, off.Chebyshev())
		}
		d := dirIndex(off, tg.Dim)
		if mg.out[d] == nil && len(mg.free) > 0 {
			last := len(mg.free) - 1
			mg.out[d], mg.free = mg.free[last][:0], mg.free[:last]
		}
		mg.out[d] = append(mg.out[d], mine[i])
	}
	for d, dir := range dirs {
		to, toOK := tg.Neighbor(team, dir.DX, dir.DY, wrap)
		from, fromOK := tg.Neighbor(team, -dir.DX, -dir.DY, wrap)
		if toOK && to != team {
			x.sendParticles(leaders, to, tagMigrate+d, mg.out[d])
		} else if len(mg.out[d]) > 0 {
			return nil, fmt.Errorf("core: particles migrating off the reflective grid toward %+v", dir)
		}
		mg.out[d] = nil
		if fromOK && from != team {
			inc, err := x.recvParticles(leaders, from, tagMigrate+d)
			if err != nil {
				return nil, err
			}
			merged = append(merged, inc...)
			if cap(inc) > 0 {
				mg.free = append(mg.free, inc)
			}
		}
	}
	phys.SortByID(merged)
	mg.spare = mine
	return merged, nil
}

// wrapStep maps a coordinate difference on a ring of length side to the
// representative in (-side/2, side/2].
func wrapStep(d, side int) int {
	d = topo.Mod(d, side)
	if d > side/2 {
		d -= side
	}
	return d
}
