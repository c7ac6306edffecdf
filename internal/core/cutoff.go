package core

import (
	"fmt"
	"math"

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
// It is NewCutoff advanced once.
func Cutoff(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
	s, err := NewCutoff(ps, pr)
	return once(s, err, pr.Steps)
}

// NewCutoff prepares a session of Algorithm 2 from the particle set ps,
// which it copies into the teams owning their positions.
//
// Requirements: pr.Law.Cutoff > 0; for 2D boxes the team count p/c must
// be a perfect square; the cutoff window (2m+1 teams per dimension) must
// fit inside the team grid; and c may not exceed the window size.
func NewCutoff(ps []phys.Particle, pr Params) (*Session, error) {
	n := len(ps)
	if err := pr.validateCommon(n); err != nil {
		return nil, err
	}
	if pr.Law.Cutoff <= 0 {
		return nil, fmt.Errorf("core: cutoff algorithm requires a positive cutoff radius")
	}
	cg, sched, w, err := newCutoffLayout(pr.P, pr.C, pr.Law.Cutoff, pr.Box)
	if err != nil {
		return nil, err
	}
	perS, perW := cutoffBounds(n, pr)
	owned := scatterByTeam(ps, pr.Box, w.tg)

	return newSession(n, pr, perS, perW, func(rk *rank) rankLoop {
		l, layer, team := newShiftLoop(rk, &pr, cg)
		l.moves = cutoffMoves(sched, w.tg, layer, team)
		pairing := w // the migrator in it is the rank's own
		l.pairing = &pairing
		// The exchange buffer carries its true source team so receivers
		// can reject aliased buffers near reflective boundaries;
		// windowed applies each block on arrival and keeps no view.
		l.x = newXfer(pr, team, false)
		if l.leader {
			l.mine = owned[team]
		}
		return rankLoop{l.step, l.holds}
	}), nil
}

// newCutoffLayout lays Algorithm 2 out on p ranks at replication factor
// c, for cutoff radius rc in box: the replication grid, the schedule and
// the pairing every rank starts from. The team grid must hold the cutoff
// window — 2m+1 teams per dimension — and c may not exceed the window
// size.
func newCutoffLayout(p, c int, rc float64, box phys.Box) (*commGrid, *CutoffSchedule, windowed, error) {
	cg, err := newCommGrid(p, c)
	if err != nil {
		return nil, nil, windowed{}, err
	}
	tg, err := topo.NewTeamGrid(cg.Cols, box.Dim)
	if err != nil {
		return nil, nil, windowed{}, err
	}
	m := SpanFor(rc, box.L, tg.Side)
	if 2*m+1 > tg.Side {
		return nil, nil, windowed{}, fmt.Errorf("core: cutoff window 2m+1=%d exceeds team grid side %d (cutoff too large for this decomposition)", 2*m+1, tg.Side)
	}
	sched, err := NewCutoffSchedule(m, c, box.Dim)
	if err != nil {
		return nil, nil, windowed{}, err
	}
	w := windowed{tg: tg, m: m, wrap: box.Boundary == phys.Periodic, dirs: migrationDirs(box.Dim)}
	return cg, sched, w, nil
}

// cutoffMoves is the move list of the rank of the given layer and team:
// the skew into the layer's first window position, then the layer's
// stride-c jumps through the cutoff window. The moves are constants of
// the run, so each one's ring neighbours are resolved once. Data moves
// on the team torus whatever the box's boundary; a buffer that wrapped
// around a reflective edge is rejected on arrival (windowed.update).
// The ring does not close in general: the window is a part of the
// torus and c need not divide it, so no buffer returns to its loader.
func cutoffMoves(sched *CutoffSchedule, tg topo.TeamGrid, layer, team int) moves {
	hops := make([]hop, sched.Steps(layer))
	for i := range hops {
		mv := sched.Move(layer, i)
		hops[i].to, _ = tg.Neighbor(team, mv.DX, mv.DY, true)
		hops[i].from, _ = tg.Neighbor(team, -mv.DX, -mv.DY, true)
	}
	return moves{last: len(hops) - 1, hops: hops}
}

// windowed is Algorithm 2's pairing: a visiting block interacts if its
// source team lies in the rank's cutoff window, and a leader that has
// integrated hands the particles that left its region to their new
// teams.
type windowed struct {
	tg   topo.TeamGrid
	m    int  // cutoff span in team widths
	wrap bool // periodic box: team distances wrap
	dirs []topo.Offset
	mig  migrator
}

func (w *windowed) update(l *shiftLoop) {
	src, visiting := l.x.view()
	if !w.inWindow(l.slot, src) {
		return
	}
	l.st.SetPhase(trace.Compute)
	l.counted(l.pool.AccumulateIn(l.kern, l.replica, visiting, l.pr.Box))
}

// inWindow is the window test: the block team src loaded interacts
// with team's replica if the two are within Chebyshev distance m,
// unwrapped for reflective boxes — a wrapped delivery means the buffer
// aliased around the data-movement torus and must be skipped.
func (w *windowed) inWindow(team, src int) bool {
	return w.tg.ChebyshevDist(team, src, w.wrap) <= w.m
}

// flush has nothing to apply: the window's ring is open, so update may
// not keep a view past the next move (the reuse discipline in
// transport.go) and applies every block on arrival.
func (*windowed) flush(*shiftLoop) {}

// integrated is step (6), the spatial reassignment between neighboring
// teams. Migration runs between the team leaders, the layer-0 ranks
// indexed by team: that is the leader's ring.
func (w *windowed) integrated(l *shiftLoop, mine []phys.Particle) ([]phys.Particle, error) {
	l.st.SetPhase(trace.Reassign)
	return w.mig.migrate(l.x, l.ring, w.tg, l.slot, mine, l.pr.Box, w.dirs, w.wrap)
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
		if to, ok := migrationPeer(tg, team, dir, wrap); ok {
			x.sendParticles(leaders, to, tagMigrate+d, mg.out[d])
		} else if len(mg.out[d]) > 0 {
			return nil, fmt.Errorf("core: particles migrating off the reflective grid toward %+v", dir)
		}
		mg.out[d] = nil
		if from, ok := migrationPeer(tg, team, topo.Offset{DX: -dir.DX, DY: -dir.DY}, wrap); ok {
			inc := x.recvParticles(leaders, from, tagMigrate+d)
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

// migrationPeer is the team a leader sends the particles moving in
// direction dir to, and whether it has one: none beyond a reflective
// edge, nor itself across a periodic grid one team wide.
func migrationPeer(tg topo.TeamGrid, team int, dir topo.Offset, wrap bool) (int, bool) {
	to, ok := tg.Neighbor(team, dir.DX, dir.DY, wrap)
	return to, ok && to != team
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
