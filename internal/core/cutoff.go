package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vec"
)

// SpanFor returns m, the number of team widths spanned by the cutoff
// radius (Equation 6): the smallest m ≥ 1 with m·w ≥ rc for the team
// width w = boxL/side, so that every pair within rc lies in teams at
// Chebyshev distance at most m. The test is exact — the fused m·w − rc
// is rounded once, so its sign is that of the exact difference — and a
// cutoff past a whole number of widths by any amount takes the wider
// window. A cutoff of side widths or more gets side, whose window
// (2m+1 teams) no grid of that side holds.
func SpanFor(rc, boxL float64, side int) int {
	w := boxL / float64(side)
	q := math.Ceil(rc / w) // within one of m: the quotient is rounded
	if !(q < float64(side)) {
		return side
	}
	m := max(1, int(q))
	for m > 1 && math.FMA(float64(m-1), w, -rc) >= 0 {
		m--
	}
	for math.FMA(float64(m), w, -rc) < 0 {
		m++
	}
	return m
}

// NewCutoff prepares a session of the communication-avoiding
// distance-limited interaction algorithm (Algorithm 2 for 1D boxes, its
// serpentine generalization for 2D boxes) from the particle set ps, which
// it copies into the teams owning their positions. Teams own spatial
// regions of the box, and every member of a team holds a copy of its
// particles; each timestep shifts exchange buffers through the cutoff
// window with stride c, sums the force contributions over the team,
// integrates every copy, and spatially reassigns migrating particles
// between neighboring teams, layer by layer.
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

	return newSession(n, pr, perS, perW, cg, func(rk *rank) *shiftLoop {
		l, layer, team := newShiftLoop(rk, &pr, cg)
		l.moves = cutoffMoves(sched, w.tg, layer, team)
		pairing := w // the migrator in it is the rank's own
		l.pairing = &pairing
		// The exchange buffer carries its true source team so receivers
		// can reject aliased buffers near reflective boundaries;
		// windowed applies each block on arrival and keeps no view.
		l.x = rk.newXfer(team, false)
		l.mine = slices.Clone(owned[team])
		return l
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
	if tg.Side < 3 {
		// Even the narrowest window, m = 1, is three teams a side.
		return nil, nil, windowed{}, fmt.Errorf("core: %d teams make a team grid of side %d, and a cutoff window is at least 3 teams a side: no cutoff fits (use more teams, p/c)", cg.Cols, tg.Side)
	}
	if 2*m+1 > tg.Side {
		return nil, nil, windowed{}, fmt.Errorf("core: cutoff window 2m+1=%d exceeds team grid side %d (cutoff too large for this decomposition)", 2*m+1, tg.Side)
	}
	sched, err := NewCutoffSchedule(m, c, box.Dim)
	if err != nil {
		return nil, nil, windowed{}, err
	}
	w := windowed{tg: tg, m: m, wrap: box.Boundary == phys.Periodic}
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
// source team lies in the rank's cutoff window, and a rank that has
// integrated hands the particles that left its region to the same layer
// of their new teams.
//
// One block of the window is the rank's own team's, a copy of the team
// it holds, loaded from an equal copy and in the same order. That visit
// is the team against itself, which the kernel evaluates once per
// unordered pair where it can (phys.Kernel.AccumulateSelf): the same
// forces and the same count, and no message changes, since the reaction
// of a pair goes to a particle of the same copy.
type windowed struct {
	tg   topo.TeamGrid
	m    int  // cutoff span in team widths
	wrap bool // periodic box: team distances wrap
	mig  migrator
}

func (w *windowed) update(l *shiftLoop, _ int) {
	src, visiting := l.x.view()
	if !w.inWindow(l.slot, src) {
		return
	}
	l.st.SetPhase(trace.Compute)
	if src == l.slot {
		l.counted(l.pool.AccumulateSelf(l.kern, l.mine, l.pr.Box))
		return
	}
	l.counted(l.pool.AccumulateIn(l.kern, l.mine, visiting, l.pr.Box))
}

// inWindow is the window test: the block team src loaded interacts
// with team's copy if the two are within Chebyshev distance m,
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
// teams. Every layer migrates its own copies, over its ring: the ranks
// of the layer indexed by team. Equal copies send equal particles, so
// the copies stay equal.
func (w *windowed) integrated(l *shiftLoop, mine []phys.Particle) ([]phys.Particle, error) {
	l.st.SetPhase(trace.Reassign)
	return w.mig.migrate(l.x, l.ring, w.tg, l.slot, mine, l.pr.Box, w.wrap)
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

// migrator is one rank's spatial-reassignment state, retained across
// steps so that the steady state allocates nothing: the outgoing
// particles are bucketed by stage and side in a fixed array, the
// arrivals gathered in a retained buffer, the team rebuilt in a buffer
// double-buffered against the current one, and the payloads received in
// one step are the send buffers of later ones.
type migrator struct {
	// out is indexed by axis (0 is x, 1 is y) and side (0 toward −axis,
	// 1 toward +axis): the payload of one message of that axis's stage.
	out [2][2][]phys.Particle
	// arrived holds the step's incoming particles that stay here, to be
	// merged into the stayers.
	arrived []phys.Particle
	// spare is the previous team buffer, the target of the next rebuild.
	// The current one cannot be rebuilt in place while incoming
	// particles are merged among the stayers, and the previous one is
	// free: no other rank reads a team buffer (loadExchange copies it).
	// The two keep one capacity: a rebuilt team that outgrows it grows
	// both at once, with a quarter of headroom.
	spare []phys.Particle
	// free holds payloads received in earlier stages and steps. A
	// received slice is the receiver's outright (the ownership-transfer
	// contract in transport.go), so it backs a later send; buffers
	// circulate between neighbors instead of being allocated by every
	// sender every step.
	free [][]phys.Particle
}

// migrate exchanges particles that left the team's spatial region with
// the neighboring teams over the given transport and returns the updated
// local set in ID order (in a different buffer than mine, which the
// migrator keeps for the next step). Typed sends transfer their payload
// outright.
//
// The exchange is dimension-ordered: one stage per axis, x first, in
// which the rank sends one message toward −axis and one toward +axis
// and receives one from each side — 2·dim messages out and 2·dim in,
// each sent even when empty, since nothing else tells a receiver that
// nothing is coming. A particle travels along the first axis on which
// its team differs from the holder's; one that arrives but still lies
// off along a later axis is forwarded in that axis's stage, so a
// diagonal migrant reaches its team through its x neighbor. Particles
// may move at most one team width per step; exceeding that is reported
// by the source rank as an error (the timestep is too large for the
// decomposition).
func (mg *migrator) migrate(x xfer, layer *comm.Comm, tg topo.TeamGrid, team int, mine []phys.Particle, box phys.Box, wrap bool) ([]phys.Particle, error) {
	if cap(mg.spare) < cap(mine) {
		mg.spare = make([]phys.Particle, 0, cap(mine))
	}
	stay := mg.spare[:0]
	inOrder := true
	for i := range mine {
		dst := teamOfPos(mine[i].Pos, box, tg)
		if dst == team {
			inOrder = inOrder && (len(stay) == 0 || stay[len(stay)-1].ID < mine[i].ID)
			stay = append(stay, mine[i])
			continue
		}
		off := teamOffset(tg, team, dst, wrap)
		if off.Chebyshev() > 1 {
			return nil, fmt.Errorf("core: particle %d migrated %d team widths in one step; reduce dt or enlarge teams", mine[i].ID, off.Chebyshev())
		}
		mg.route(off, mine[i])
	}
	mg.arrived = mg.arrived[:0]
	for a := 0; a < tg.Dim; a++ {
		for side := range 2 {
			dir := axisStep(a, side)
			tag := tagMigrate + 2*a + side
			to, sends := migrationPeer(tg, team, dir, wrap)
			if !sends && len(mg.out[a][side]) > 0 {
				return nil, fmt.Errorf("core: particles migrating off the reflective grid toward %+v", dir)
			}
			from, receives := migrationPeer(tg, team, topo.Offset{DX: -dir.DX, DY: -dir.DY}, wrap)
			// A rank with both neighbours offers the send and the
			// receive at once: a periodic ring of ranks each sending
			// first would wait on itself where a send completes only once
			// it is received.
			var inc []phys.Particle
			switch {
			case sends && receives:
				inc = x.sendrecvParticles(layer, to, mg.out[a][side], from, tag)
			case sends:
				x.sendParticles(layer, to, tag, mg.out[a][side])
			case receives:
				inc = x.recvParticles(layer, from, tag)
			}
			mg.out[a][side] = nil
			for i := range inc {
				// A forwarded particle is copied into a later stage's
				// buffer before inc joins the free list below.
				if dst := teamOfPos(inc[i].Pos, box, tg); dst != team {
					mg.route(teamOffset(tg, team, dst, wrap), inc[i])
					continue
				}
				mg.arrived = append(mg.arrived, inc[i])
			}
			if cap(inc) > 0 {
				mg.free = append(mg.free, inc)
			}
		}
	}
	mg.spare = mine
	if n := len(stay) + len(mg.arrived); n > cap(stay) {
		stay = append(make([]phys.Particle, 0, n+n/4), stay...)
		mg.spare = make([]phys.Particle, 0, n+n/4)
	}
	return mergeByID(stay, mg.arrived, inOrder), nil
}

// route appends p, whose team lies at the nonzero offset off, to the
// outgoing buffer of the first axis along which off is nonzero, taking
// the buffer from the free list when it has none yet.
func (mg *migrator) route(off topo.Offset, p phys.Particle) {
	a, d := 0, off.DX
	if d == 0 {
		a, d = 1, off.DY
	}
	side := (d + 1) / 2
	if mg.out[a][side] == nil && len(mg.free) > 0 {
		last := len(mg.free) - 1
		mg.out[a][side], mg.free = mg.free[last][:0], mg.free[:last]
	}
	mg.out[a][side] = append(mg.out[a][side], p)
}

// mergeByID returns the team rebuilt in ID order in stay's buffer: the
// stayers, which keep the ID order of the team they came from, and the
// few arrivals, sorted and merged in from the back. A stayer out of ID
// order (a team in the caller's input order, before its first step)
// takes the full sort instead. Either way, with distinct IDs (a valid
// state has them), the result is the one ID order, whatever route a
// particle took.
func mergeByID(stay, arrived []phys.Particle, inOrder bool) []phys.Particle {
	ns := len(stay)
	team := append(stay, arrived...)
	if !inOrder {
		phys.SortByID(team)
		return team
	}
	phys.SortByID(arrived)
	i, j := ns-1, len(arrived)-1
	for k := len(team) - 1; j >= 0; k-- {
		if i >= 0 && team[i].ID > arrived[j].ID {
			team[k] = team[i]
			i--
		} else {
			team[k] = arrived[j]
			j--
		}
	}
	return team
}

// teamOffset is the offset from team to dst on the team grid, each
// coordinate wrapped to the shorter way round in a periodic box.
func teamOffset(tg topo.TeamGrid, team, dst int, wrap bool) topo.Offset {
	tx, ty := tg.Coord(team)
	dx, dy := tg.Coord(dst)
	off := topo.Offset{DX: dx - tx, DY: dy - ty}
	if wrap {
		off.DX = wrapStep(off.DX, tg.Side)
		off.DY = wrapStep(off.DY, tg.Side)
	}
	return off
}

// axisStep is the unit offset along axis a (0 is x, 1 is y) toward its
// side: 0 is −axis, 1 is +axis.
func axisStep(a, side int) topo.Offset {
	d := 2*side - 1
	if a == 0 {
		return topo.Offset{DX: d}
	}
	return topo.Offset{DY: d}
}

// migrationPeer is the team a rank sends the particles moving in
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
