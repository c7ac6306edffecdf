package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// planCase is one algorithm the evaluator is held to: its constructor,
// parameters and particles.
type planCase struct {
	name string
	newS func([]phys.Particle, Params) (*Session, error)
	pr   Params
	ps   []phys.Particle
}

// planCases covers every algorithm: CA all-pairs, the cutoff loop in 1D
// and 2D with particles that migrate every step (so teams grow and
// shrink), Plimpton's particle and force decompositions, the naive
// all-gather, and CA all-pairs at c = 3.
func planCases() []planCase {
	moving := func(pr Params, n int) []phys.Particle {
		ps := phys.InitUniform(n, pr.Box, 7)
		for i := range ps {
			// Up to a tenth of a team width a step, as in
			// TestCutoffReassignMessages.
			ps[i].Vel.X = float64(i%11-5) * 20
			if pr.Box.Dim == 2 {
				ps[i].Vel.Y = float64(i%13-6) * 20
			}
		}
		return ps
	}
	ap := defaultParams(16, 2)
	c1, c2 := cutoffParams(16, 2, 1, phys.Periodic), cutoffParams(32, 2, 2, phys.Reflective)
	return []planCase{
		{"ca-all-pairs", NewAllPairs, ap, phys.InitUniform(64, ap.Box, 5)},
		{"cutoff-1d", NewCutoff, c1, moving(c1, 64)},
		{"cutoff-2d", NewCutoff, c2, moving(c2, 512)},
		{"particle", NewParticleDecomposition, defaultParams(8, 1), phys.InitUniform(32, ap.Box, 5)},
		{"force", NewForceDecomposition, defaultParams(16, 4), phys.InitUniform(32, ap.Box, 5)},
		{"naive", NewNaiveAllGather, defaultParams(8, 1), phys.InitUniform(32, ap.Box, 5)},
		// Teams of three: the allreduce is the tree's reduce and a
		// broadcast of the total.
		{"ca-all-pairs-c3", NewAllPairs, defaultParams(18, 3), phys.InitUniform(36, ap.Box, 5)},
	}
}

// rankTables is every rank's phase totals the observer's matrix has
// counted so far.
func rankTables(ob *obs.Observer, p int) []trace.PhaseTable {
	out := make([]trace.PhaseTable, p)
	for r := range out {
		out[r] = trace.RankTable(ob.Matrix(), r)
	}
	return out
}

// sameAsPlan holds every rank's counts of one step — after minus
// before — to the plan of that step.
func sameAsPlan(t *testing.T, label string, pl *Plan, before, after []trace.PhaseTable) {
	t.Helper()
	for r := range after {
		var step trace.PhaseTable
		for ph := range step {
			a, b := after[r][ph], before[r][ph]
			step[ph] = trace.PhaseStats{Messages: a.Messages - b.Messages, Bytes: a.Bytes - b.Bytes,
				RecvMessages: a.RecvMessages - b.RecvMessages, RecvBytes: a.RecvBytes - b.RecvBytes}
		}
		samePhases(t, fmt.Sprintf("%s rank %d", label, r), step, pl.Table(r))
	}
}

// TestPlanMatchesEveryRank holds the evaluator to the measured run
// exactly, rank by rank: for every algorithm, each of three steps is
// evaluated from the teams as they stand and then run, and every rank's
// sent and received messages and bytes of the broadcast, skew, shift and
// reduce, and its reassignment messages, are the plan's (oracle=false).
// A session spanning processes is evaluated before its first Advance
// only, so a socket run of each algorithm is held to the plan of its
// first step: split over two processes (socket), and as the socket twin
// with one rank a process, the copying reference (oracle=true).
func TestPlanMatchesEveryRank(t *testing.T) {
	for _, tc := range planCases() {
		t.Run(tc.name+"/oracle=false", func(t *testing.T) {
			t.Parallel()
			pr := tc.pr
			pr.Options.Observe = obs.NewObserver(pr.P, 0)
			s, err := tc.newS(tc.ps, pr)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 3; step++ {
				pl, err := s.Plan()
				if err != nil {
					t.Fatal(err)
				}
				before := rankTables(pr.Options.Observe, pr.P)
				if _, _, err := s.Advance(1); err != nil {
					t.Fatal(err)
				}
				sameAsPlan(t, fmt.Sprintf("step %d", step), pl, before, rankTables(pr.Options.Observe, pr.P))
			}
		})
		overSockets := func(t *testing.T, procs int) {
			// Proc 0's observer merges every proc's counts.
			var pl *Plan
			var ob *obs.Observer
			var mu sync.Mutex
			runOverSockets(t, procs, tc.pr, tc.ps, func(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
				if pr.Proc.ID() == 0 {
					pr.Options.Observe = obs.NewObserver(pr.P, 0)
				}
				s, err := tc.newS(ps, pr)
				if err != nil {
					return nil, nil, err
				}
				p, err := s.Plan()
				if err != nil {
					return nil, nil, err
				}
				if pr.Proc.ID() == 0 {
					mu.Lock()
					pl, ob = p, pr.Options.Observe
					mu.Unlock()
				}
				return s.Advance(1)
			})
			sameAsPlan(t, fmt.Sprintf("%d procs", procs), pl, make([]trace.PhaseTable, tc.pr.P), rankTables(ob, tc.pr.P))
		}
		t.Run(tc.name+"/oracle=true", func(t *testing.T) {
			t.Parallel()
			overSockets(t, tc.pr.P)
		})
		t.Run(tc.name+"/socket", func(t *testing.T) { overSockets(t, 2) })
	}
}

// TestPlanLeavesTheSessionAlone: evaluating starts no goroutine that
// outlives it, and a session evaluated before and between its Advances
// reaches the state of one that never was, bit for bit.
func TestPlanLeavesTheSessionAlone(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, tc := range planCases() {
		plain, err := tc.newS(tc.ps, tc.pr)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := plain.Advance(3)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tc.newS(tc.ps, tc.pr)
		if err != nil {
			t.Fatal(err)
		}
		var got []phys.Particle
		for step := 0; step < 3; step++ {
			if _, err := s.Plan(); err != nil {
				t.Fatal(err)
			}
			if got, _, err = s.Advance(1); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(tc.name, func(t *testing.T) { samePhysState(t, got, want) })
	}
}

// TestPlanOfProcessesBeforeAdvance: a session spanning processes is
// evaluated before its first Advance, and refuses after it, since it
// holds only its own ranks' teams.
func TestPlanOfProcessesBeforeAdvance(t *testing.T) {
	tc := planCases()[1]
	runOverSockets(t, 2, tc.pr, tc.ps, func(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
		s, err := NewCutoff(ps, pr)
		if err != nil {
			return nil, nil, err
		}
		if _, err := s.Plan(); err != nil {
			return nil, nil, err
		}
		out, rep, err := s.Advance(1)
		if _, perr := s.Plan(); err == nil && perr == nil {
			err = fmt.Errorf("proc %d: evaluated after an Advance", pr.Proc.ID())
		}
		return out, rep, err
	})
}
