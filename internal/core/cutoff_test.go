package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vec"
)

// serialCutoffRun advances the particles with the brute-force cutoff
// kernel, the ground truth for the parallel cutoff algorithm.
func serialCutoffRun(ps []phys.Particle, law phys.Law, box phys.Box, steps int, dt float64) []phys.Particle {
	out := append([]phys.Particle(nil), ps...)
	for s := 0; s < steps; s++ {
		phys.BruteForceCutoff(out, law, box)
		phys.Step(out, box, dt)
	}
	phys.SortByID(out)
	return out
}

func cutoffParams(p, c, dim int, boundary phys.Boundary) Params {
	box := phys.NewBox(16, dim, boundary)
	return Params{
		P:   p,
		C:   c,
		Law: phys.DefaultLaw().WithCutoff(box.L / 4),
		Box: box,
		DT:  5e-4,
	}
}

func checkAgainst(t *testing.T, got, want []phys.Particle, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d particles, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("particle %d: ID %d != %d", i, got[i].ID, want[i].ID)
		}
		if d := got[i].Pos.Dist(want[i].Pos); d > tol {
			t.Fatalf("particle ID %d deviates by %g (pos %+v vs %+v)", got[i].ID, d, got[i].Pos, want[i].Pos)
		}
	}
}

func TestCutoff1DMatchesSerial(t *testing.T) {
	cases := []struct {
		p, c, n  int
		boundary phys.Boundary
	}{
		{8, 1, 64, phys.Reflective},
		{16, 2, 64, phys.Reflective},
		{16, 1, 48, phys.Reflective},
		{32, 4, 96, phys.Reflective},
		{8, 1, 64, phys.Periodic},
		{16, 2, 64, phys.Periodic},
		{32, 4, 96, phys.Periodic},
		{24, 3, 72, phys.Reflective},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p=%d/c=%d/n=%d/%v", tc.p, tc.c, tc.n, tc.boundary), func(t *testing.T) {
			t.Parallel()
			const steps = 3
			pr := cutoffParams(tc.p, tc.c, 1, tc.boundary)
			ps := phys.InitLattice(tc.n, pr.Box, 9)
			want := serialCutoffRun(ps, pr.Law, pr.Box, steps, pr.DT)
			got, _, err := advance(NewCutoff, ps, pr, steps)
			if err != nil {
				t.Fatalf("Cutoff: %v", err)
			}
			checkAgainst(t, got, want, 1e-9)
		})
	}
}

func TestCutoff2DMatchesSerial(t *testing.T) {
	cases := []struct {
		p, c, n  int
		boundary phys.Boundary
	}{
		{16, 1, 64, phys.Reflective},  // 16 teams, 4x4 grid
		{32, 2, 64, phys.Reflective},  // 16 teams
		{64, 4, 128, phys.Reflective}, // 16 teams
		{16, 1, 64, phys.Periodic},
		{32, 2, 64, phys.Periodic},
		{128, 2, 128, phys.Reflective}, // 64 teams, 8x8 grid, m=2
		{144, 4, 144, phys.Periodic},   // 36 teams, 6x6 grid
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p=%d/c=%d/n=%d/%v", tc.p, tc.c, tc.n, tc.boundary), func(t *testing.T) {
			t.Parallel()
			const steps = 3
			pr := cutoffParams(tc.p, tc.c, 2, tc.boundary)
			ps := phys.InitLattice(tc.n, pr.Box, 13)
			want := serialCutoffRun(ps, pr.Law, pr.Box, steps, pr.DT)
			got, _, err := advance(NewCutoff, ps, pr, steps)
			if err != nil {
				t.Fatalf("Cutoff: %v", err)
			}
			checkAgainst(t, got, want, 1e-9)
		})
	}
}

func TestCutoffLargerReplication(t *testing.T) {
	// Larger c relative to the window, including c not dividing the
	// window size (uneven layer loads).
	const steps = 3
	pr := cutoffParams(40, 5, 1, phys.Reflective) // 8 teams, m=2, window 5
	ps := phys.InitLattice(64, pr.Box, 21)
	want := serialCutoffRun(ps, pr.Law, pr.Box, steps, pr.DT)
	got, _, err := advance(NewCutoff, ps, pr, steps)
	if err != nil {
		t.Fatalf("Cutoff: %v", err)
	}
	checkAgainst(t, got, want, 1e-9)
}

// TestPeriodicReassignUnderRendezvous: the reassignment of a periodic
// box passes particles round rings of teams, and on rendezvous
// mailboxes (comm.Options.MailboxCap < 0), where a send waits for its
// receive, a ring whose every team sent before receiving would wait on
// itself. A 1-D and a 2-D periodic run, whose particles do migrate
// on every layer's ring, must finish there within a time bound, leave
// no goroutine behind and reach the buffered run's state hash and
// traffic.
func TestPeriodicReassignUnderRendezvous(t *testing.T) {
	const steps = 4
	for _, tc := range []struct{ p, c, dim, n int }{{16, 2, 1, 64}, {32, 2, 2, 128}} {
		t.Run(fmt.Sprintf("p=%d/c=%d/dim=%d", tc.p, tc.c, tc.dim), func(t *testing.T) {
			defer leakcheck.Check(t)()
			pr := cutoffParams(tc.p, tc.c, tc.dim, phys.Periodic)
			ps := phys.InitLattice(tc.n, pr.Box, 5)
			for i := range ps {
				// A common drift, 0.6 in a run, carries the particles near
				// a team's upper edges (diagonally in 2-D) to the next.
				ps[i].Vel.X += 300
				if tc.dim == 2 {
					ps[i].Vel.Y += 300
				}
			}
			run := func(boxCap int) (uint64, *trace.Report, []phys.Particle) {
				pr := pr
				pr.Options.MailboxCap = boxCap
				type result struct {
					out []phys.Particle
					rep *trace.Report
					err error
				}
				done := make(chan result, 1)
				go func() {
					out, rep, err := advance(NewCutoff, ps, pr, steps)
					done <- result{out, rep, err}
				}()
				select {
				case r := <-done:
					if r.err != nil {
						t.Fatalf("MailboxCap %d: %v", boxCap, r.err)
					}
					h := fnv.New64a()
					h.Write(phys.AppendSlice(nil, r.out))
					return h.Sum64(), r.rep, r.out
				case <-time.After(20 * time.Second):
					t.Fatalf("MailboxCap %d: %d steps did not finish in 20 s", boxCap, steps)
					return 0, nil, nil
				}
			}
			wantHash, wantRep, out := run(0)
			gotHash, gotRep, _ := run(-1)
			if gotHash != wantHash {
				t.Errorf("rendezvous state hash %#x, buffered %#x", gotHash, wantHash)
			}
			sameReportCounts(t, wantRep, gotRep)
			// Every rank of every layer reassigns over its ring.
			if got, want := gotRep.Sum[trace.Reassign].Messages, int64(tc.p*2*tc.dim*steps); got != want {
				t.Errorf("%d reassignment messages, want %d: 2·dim a step from each of the %d ranks", got, want, tc.p)
			}
			tg, err := topo.NewTeamGrid(tc.p/tc.c, tc.dim)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for i := range out {
				if teamOfPos(out[i].Pos, pr.Box, tg) != teamOfPos(ps[out[i].ID].Pos, pr.Box, tg) {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("no particle changed team; the reassignment carried nothing")
			}
		})
	}
}

// TestCutoffJustPastTeamWidths runs a cutoff nine ulps past one team
// width, 8 teams of 2 in a periodic box of 16: the window spans two
// teams, and the one pair in reach, between teams two apart and at a
// separation within those ulps of the width, interacts. With a window
// of one team the pair was never evaluated. Each particle's force is the
// one pair's, so the velocities after a step match the serial reference
// bit for bit.
func TestCutoffJustPastTeamWidths(t *testing.T) {
	pr := cutoffParams(8, 1, 1, phys.Periodic)
	pr.Law.Cutoff = 2 + 9*0x1p-51
	if m := SpanFor(pr.Law.Cutoff, pr.Box.L, 8); m != 2 {
		t.Fatalf("SpanFor = %d, want 2", m)
	}
	ps := []phys.Particle{{ID: 0, Pos: vec.Vec2{X: math.Nextafter(2, 0)}}, {ID: 1, Pos: vec.Vec2{X: 4}}}
	want := serialCutoffRun(ps, pr.Law, pr.Box, 1, pr.DT)
	got, _, err := advance(NewCutoff, ps, pr, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].Vel.X == 0 || got[i].ID != want[i].ID || got[i].Vel != want[i].Vel {
			t.Errorf("particle %d: velocity %v, the serial reference %v (nonzero)", want[i].ID, got[i].Vel, want[i].Vel)
		}
	}
}

// plainWindow is the pairing windowed replaced, kept as its reference:
// the rank's own team's block is swept as it arrives, against the
// replica, like every other block of the window.
type plainWindow struct{ *windowed }

func (w plainWindow) update(l *shiftLoop, _ int) {
	src, visiting := l.x.view()
	if !w.inWindow(l.slot, src) {
		return
	}
	l.st.SetPhase(trace.Compute)
	l.counted(l.pool.AccumulateIn(l.kern, l.mine, visiting, l.pr.Box))
}

// cutoffPlain is NewCutoff with that pairing, for parameters NewCutoff
// accepts, advanced three timesteps.
func cutoffPlain(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
	cg, sched, w, err := newCutoffLayout(pr.P, pr.C, pr.Law.Cutoff, pr.Box)
	if err != nil {
		return nil, nil, err
	}
	perS, perW := cutoffBounds(len(ps), pr)
	owned := scatterByTeam(ps, pr.Box, w.tg)
	return newSession(len(ps), pr, perS, perW, cg, func(rk *rank) *shiftLoop {
		l, layer, team := newShiftLoop(rk, &pr, cg)
		l.moves = cutoffMoves(sched, w.tg, layer, team)
		pairing := w
		l.pairing = plainWindow{&pairing}
		l.x = rk.newXfer(team, false)
		l.mine = slices.Clone(owned[team])
		return l
	}).Advance(3)
}

// TestCutoffOwnBlock holds the cutoff loop, whose ranks sweep their own
// team's block as the replica against itself, to the loop that sweeps it
// as a visiting block: the final state struct-equal, the pair count and
// every phase's messages and bytes the same, for one and two workers.
// The own block arrives where the schedule puts it: alone on layer 1 of
// a 1D window at c = 2 (cutoff-small's shape), and at position 4 of a
// 3×3 window at c = 4 (cutoff-2d's), the second of the leader's three
// blocks. Under a cutoff below the team width a block spans more than
// the cutoff, and the kernel keeps the gated sweep for it.
func TestCutoffOwnBlock(t *testing.T) {
	cases := []struct {
		name       string
		p, c, dim  int
		boundary   phys.Boundary
		n          int
		rcPerWidth float64
	}{
		{"1D c=2, layer 1", 8, 2, 1, phys.Periodic, 512, 1},
		{"1D c=2, reflective", 8, 2, 1, phys.Reflective, 300, 1},
		{"2D c=4, the leader", 64, 4, 2, phys.Reflective, 1024, 1},
		{"2D c=2, periodic", 32, 2, 2, phys.Periodic, 1024, 1},
		{"1D, cutoff below the team width", 8, 2, 1, phys.Periodic, 512, 0.7},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			pr := cutoffParams(tc.p, tc.c, tc.dim, tc.boundary)
			tg, err := topo.NewTeamGrid(tc.p/tc.c, tc.dim)
			if err != nil {
				t.Fatal(err)
			}
			pr.Law.Cutoff = tc.rcPerWidth * pr.Box.L / float64(tg.Side)
			ps := phys.InitLattice(tc.n, pr.Box, 31)
			ref := pr
			ref.Options.Observe = obs.NewObserver(tc.p, 1<<12)
			want, wantRep, err := cutoffPlain(ps, ref)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			wantPairs := ref.Options.Observe.Metrics.Snapshot().Counters["compute.pairs"]
			for _, workers := range []int{1, 2} {
				run := fmt.Sprintf("workers=%d", workers)
				pr := pr
				pr.Workers = workers
				ob := obs.NewObserver(tc.p, 1<<12)
				pr.Options.Observe = ob
				got, rep, err := advance(NewCutoff, ps, pr, 3)
				if err != nil {
					t.Fatalf("%s: %v", run, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: particle %d\n own block as the replica %+v\n as a visiting block     %+v", run, i, got[i], want[i])
					}
				}
				if !sameCommCounts(rep, wantRep) || rep.S() != wantRep.S() || rep.W() != wantRep.W() {
					t.Errorf("%s: messages or bytes differ from the reference's", run)
				}
				if pairs := ob.Metrics.Snapshot().Counters["compute.pairs"]; pairs != wantPairs || pairs == 0 {
					t.Errorf("%s: compute.pairs = %d, the reference counted %d", run, pairs, wantPairs)
				}
			}
		})
	}
}

func TestCutoffRejectsBadParams(t *testing.T) {
	ps := phys.InitLattice(64, phys.NewBox(16, 1, phys.Reflective), 1)
	for _, tc := range []struct {
		name string
		pr   Params
	}{
		{"no cutoff radius", func() Params { p := cutoffParams(8, 1, 1, phys.Reflective); p.Law.Cutoff = 0; return p }()},
		{"window too large", func() Params { p := cutoffParams(4, 1, 1, phys.Reflective); p.Law.Cutoff = p.Box.L / 2; return p }()},
		{"c exceeds window", cutoffParams(64, 8, 1, phys.Reflective)}, // 8 teams, m=2, window 5 < 8
	} {
		if _, _, err := advance(NewCutoff, ps, tc.pr, 1); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Non-square team count in 2D.
	pr2 := cutoffParams(8, 1, 2, phys.Reflective)
	ps2 := phys.InitLattice(64, pr2.Box, 1)
	if _, _, err := advance(NewCutoff, ps2, pr2, 1); err == nil {
		t.Error("non-square 2D team count: expected error")
	}
}

func TestCutoffConservesParticles(t *testing.T) {
	// Run long enough for real migration to happen and check no
	// particle is lost or duplicated.
	pr := cutoffParams(16, 2, 1, phys.Reflective)
	pr.DT = 2e-3
	ps := phys.InitLattice(64, pr.Box, 33)
	got, _, err := advance(NewCutoff, ps, pr, 25)
	if err != nil {
		t.Fatalf("Cutoff: %v", err)
	}
	if len(got) != len(ps) {
		t.Fatalf("particle count changed: %d -> %d", len(ps), len(got))
	}
	seen := make(map[uint32]bool, len(got))
	for i := range got {
		if seen[got[i].ID] {
			t.Fatalf("duplicate particle ID %d", got[i].ID)
		}
		seen[got[i].ID] = true
		if !pr.Box.Contains(got[i].Pos) {
			t.Fatalf("particle %d escaped the box: %+v", got[i].ID, got[i].Pos)
		}
	}
}

// TestCutoffDiagonalMigration drives particles across team corners,
// where reassignment forwards them: a particle whose team lies one step
// along x and one along y travels to its x neighbor in the first stage
// and on to its team in the second. Over a lattice background, one
// particle sits just inside a corner of the team grid at every grid
// vertex — in the quadrant the vertex's index picks, so no two meet —
// moving diagonally away from its quadrant, and crosses the vertex in
// the second step. In the periodic box the vertices on the box edges are
// the corner seam, which the crossing wraps around. The IDs are shuffled
// against the input order, so the first step rebuilds teams by the full
// sort and the crossing step by the merge. In one process, across two,
// and on the socket twin (one rank a process, every message copied):
// every particle ends in the team its position maps to, none is lost or
// duplicated, the state matches the serial reference, and the runs agree
// bit for bit. A diagonal jump of two team widths still fails at its
// source.
func TestCutoffDiagonalMigration(t *testing.T) {
	const p, c, steps = 32, 2, 4
	for _, boundary := range []phys.Boundary{phys.Reflective, phys.Periodic} {
		t.Run(boundary.String(), func(t *testing.T) {
			pr := cutoffParams(p, c, 2, boundary)
			tg, err := topo.NewTeamGrid(p/c, 2)
			if err != nil {
				t.Fatal(err)
			}
			w := pr.Box.L / float64(tg.Side)
			ps := phys.InitLattice(64, pr.Box, 11)
			first := 1 // interior vertices only: a reflective edge turns a particle back
			if boundary == phys.Periodic {
				first = 0
			}
			const inside, speed = 0.03, 40 // 0.02 a step: the vertex is crossed in step 2
			var corner []int               // indices into ps of the corner particles
			for i := first; i < tg.Side; i++ {
				for j := first; j < tg.Side; j++ {
					q := (i + 2*j) % 4
					sx, sy := float64(1-2*(q%2)), float64(1-2*(q/2)) // the direction of travel
					var pt phys.Particle
					pt.Pos = vec.Vec2{X: math.Mod(float64(i)*w-sx*inside+pr.Box.L, pr.Box.L), Y: math.Mod(float64(j)*w-sy*inside+pr.Box.L, pr.Box.L)}
					pt.Vel = vec.Vec2{X: sx * speed, Y: sy * speed}
					corner = append(corner, len(ps))
					ps = append(ps, pt)
				}
			}
			for i := range ps {
				ps[i].ID = uint32(i * 7 % len(ps))
			}
			startTeam := make([]int, len(ps))
			for i := range ps {
				startTeam[i] = teamOfPos(ps[i].Pos, pr.Box, tg)
			}
			want := serialCutoffRun(ps, pr.Law, pr.Box, steps, pr.DT)
			for _, i := range corner {
				from, to := startTeam[i], teamOfPos(want[ps[i].ID].Pos, pr.Box, tg)
				fx, fy := tg.Coord(from)
				tx, ty := tg.Coord(to)
				if fx == tx || fy == ty {
					t.Fatalf("corner particle %d went from team %d to team %d: not a diagonal migration", ps[i].ID, from, to)
				}
			}

			var ref []phys.Particle
			for _, procs := range []int{1, 2, p} {
				run := fmt.Sprintf("procs=%d", procs)
				check := func(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
					s, err := NewCutoff(ps, pr)
					if err != nil {
						return nil, nil, err
					}
					out, rep, err := s.Advance(steps)
					if err != nil {
						return nil, nil, err
					}
					for _, l := range s.loops {
						if l == nil || !l.leader {
							continue // a rank of the other process, or not a leader
						}
						for _, pt := range l.mine {
							if got := teamOfPos(pt.Pos, pr.Box, tg); got != l.slot {
								return nil, nil, fmt.Errorf("particle %d at %+v is held by team %d, its position maps to team %d", pt.ID, pt.Pos, l.slot, got)
							}
						}
					}
					return out, rep, nil
				}
				var got []phys.Particle
				if procs > 1 {
					got, _ = runOverSockets(t, procs, pr, ps, check)
				} else {
					got, _, err = check(ps, pr)
					if err != nil {
						t.Fatalf("%s: %v", run, err)
					}
				}
				for i := range got {
					if got[i].ID != uint32(i) {
						t.Fatalf("%s: the gathered state holds ID %d at index %d: a particle was lost or duplicated", run, got[i].ID, i)
					}
				}
				checkAgainst(t, got, want, 1e-9)
				if ref == nil {
					ref = append(ref, got...)
					continue
				}
				samePhysState(t, ref, got)
			}

			jump := append([]phys.Particle(nil), ps...)
			i := corner[len(corner)-1]
			jump[i].Vel = vec.Vec2{X: 1.75 * w / pr.DT, Y: 1.75 * w / pr.DT} // from the middle of team (0, 0) into team (2, 2)
			jump[i].Pos = vec.Vec2{X: 0.5 * w, Y: 0.5 * w}
			if _, _, err := advance(NewCutoff, jump, pr, 1); err == nil || !strings.Contains(err.Error(), "migrated") {
				t.Errorf("a diagonal jump of two team widths returned %v, want the migration error", err)
			}
		})
	}
}
