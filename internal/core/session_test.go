package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/phys"
	"repro/internal/trace"
)

// sessionLoops is one configuration of every timestep loop, small
// enough to run a few steps across a two-process mesh.
var sessionLoops = []struct {
	name string
	pr   Params
	n    int
	new  func([]phys.Particle, Params) (*Session, error)
}{
	{"allpairs", defaultParams(8, 2), 32, NewAllPairs},
	{"force", defaultParams(16, 4), 32, NewForceDecomposition},
	{"naive", defaultParams(8, 1), 32, NewNaiveAllGather},
	{"cutoff1D/periodic", cutoffParams(8, 1, 1, phys.Periodic), 64, NewCutoff},
	{"cutoff2D", cutoffParams(32, 2, 2, phys.Reflective), 96, NewCutoff},
}

// TestSessionRunsCompose is the session's lifetime contract: advanced
// by a steps and then by b more, a session ends bit for bit where one
// advanced by a+b does, and the reports of the two Advance calls add up,
// phase by phase, to the one report — the messages and bytes of each
// rank, so the critical-path S and W too. For every loop, in one process
// and across two; the one run of a+b steps is made the same way
// (oracle=false), or on the socket twin, one rank a process, which
// copies every message (oracle=true). No Advance, nor the mesh once
// closed, leaves a goroutine behind.
func TestSessionRunsCompose(t *testing.T) {
	const a, b = 2, 3
	for _, lp := range sessionLoops {
		for _, oracle := range []bool{false, true} {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/oracle=%v/procs=%d", lp.name, oracle, procs), func(t *testing.T) {
					defer leakcheck.Check(t)()
					pr := lp.pr
					ps := phys.InitLattice(lp.n, pr.Box, 3)
					whole := func(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
						return advance(lp.new, ps, pr, a+b)
					}
					split := func(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
						s, err := lp.new(ps, pr)
						if err != nil {
							return nil, nil, err
						}
						_, first, err := s.Advance(a)
						if err != nil {
							return nil, nil, err
						}
						out, second, err := s.Advance(b)
						if err != nil {
							return nil, nil, err
						}
						sum := &trace.Report{Ranks: first.Ranks}
						for ph := range sum.Sum {
							sum.Sum[ph], sum.CriticalPath[ph] = first.Sum[ph], first.CriticalPath[ph]
							sum.Sum[ph].Add(second.Sum[ph])
							sum.CriticalPath[ph].Add(second.CriticalPath[ph])
						}
						return out, sum, nil
					}
					run := func(procs int, f func([]phys.Particle, Params) ([]phys.Particle, *trace.Report, error)) ([]phys.Particle, *trace.Report) {
						if procs > 1 {
							return runOverSockets(t, procs, pr, ps, f)
						}
						out, rep, err := f(ps, pr)
						if err != nil {
							t.Fatal(err)
						}
						return out, rep
					}
					wholeProcs := procs
					if oracle {
						wholeProcs = pr.P
					}
					wantState, wantRep := run(wholeProcs, whole)
					gotState, gotRep := run(procs, split)
					samePhysState(t, wantState, gotState)
					sameReportCounts(t, wantRep, gotRep)
				})
			}
		}
	}
}

// TestSessionDiesWithAFailedAdvance: an Advance that fails — here a
// leader whose particle crossed two teams in one step — returns the
// error, leaves no goroutine behind, and leaves the session dead: the
// next Advance refuses to start rather than run on a world whose ranks
// stopped mid-step.
func TestSessionDiesWithAFailedAdvance(t *testing.T) {
	defer leakcheck.Check(t)()
	pr := cutoffParams(8, 1, 1, phys.Reflective)
	ps := phys.InitLattice(32, pr.Box, 3)
	// A velocity of 3 team widths per unit time and DT = 1: the first
	// step takes particle 0 out of its team's neighbourhood.
	ps[0].Vel.X = 3 * pr.Box.L / 8
	pr.DT = 1
	s, err := NewCutoff(ps, pr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Advance(1); err == nil || !strings.Contains(err.Error(), "team widths") {
		t.Fatalf("Advance returned %v, want the migration error", err)
	}
	if _, _, err := s.Advance(1); err == nil || !strings.Contains(err.Error(), "unusable after a failed run") {
		t.Fatalf("Advance after a failure returned %v, want the world refused", err)
	}
}

// TestGatherByID: the deposits come out sorted by ID whether the IDs
// are 0..n-1 — laid out by index — or any other set, sorted: sparse,
// or with one ID duplicated in place of another.
func TestGatherByID(t *testing.T) {
	const n = 64
	ps := phys.InitUniform(n, phys.NewBox(10, 2, phys.Reflective), 3)
	for name, id := range map[string]func(i int) uint32{
		"dense":     func(i int) uint32 { return uint32(i) },
		"sparse":    func(i int) uint32 { return uint32(3 * i) },
		"duplicate": func(i int) uint32 { return uint32(max(i, 1)) },
	} {
		want := make([]phys.Particle, n)
		deposits := map[int][]phys.Particle{}
		for i, p := range ps {
			p.ID = id(i)
			want[i] = p
			// Teams hold every fourth particle, in reverse.
			deposits[i%4] = append([]phys.Particle{p}, deposits[i%4]...)
		}
		phys.SortByID(want)
		got := gather(nil, deposits, n)
		if len(got) != n {
			t.Fatalf("%s: gathered %d particles, want %d", name, len(got), n)
		}
		for i := range got {
			// Two particles of one ID may come in either order.
			if got[i].ID != want[i].ID || got[i].Pos != want[i].Pos && name != "duplicate" {
				t.Fatalf("%s: particle %d is %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}
