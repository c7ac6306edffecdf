package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// teamCopies records, after a step, the wire encoding of every team copy
// the session's ranks of this process hold, by world rank.
func teamCopies(s *Session, into map[int][]byte) {
	for r, l := range s.loops {
		if l != nil {
			into[r] = phys.AppendSlice(nil, l.mine)
		}
	}
}

// sameAsLeaders holds every member's copy of its team to its leader's,
// bit for bit: positions, velocities, forces and IDs, in the same order.
func sameAsLeaders(t *testing.T, label string, cg *commGrid, copies map[int][]byte) {
	t.Helper()
	for r, got := range copies {
		row, col := cg.Coord(r)
		lead := cg.teams[col][0]
		if row == 0 {
			continue
		}
		want, ok := copies[lead]
		if !ok {
			t.Fatalf("%s: no copy of leader %d", label, lead)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: rank %d (row %d of team %d) holds a team of %d bytes that differs from its leader's (%d bytes)",
				label, r, row, col, len(got), len(want))
		}
	}
}

// TestMembersHoldTheLeadersTeam: every member of a team integrates its
// own copy of the team from the allreduced forces, and after every step
// each copy equals the leader's bit for bit — on ap-compute's
// configuration, on cutoff-2d-migrating's (whose particles change teams,
// so every layer's reassignment must move the same particles), at c = 3
// (the allreduce of a team that is no power of two) and across a
// two-process socket mesh, where a team's members sit in different
// processes.
func TestMembersHoldTheLeadersTeam(t *testing.T) {
	const steps = 6
	box2 := phys.NewBox(16, 2, phys.Reflective)
	moving := planCases()[2]
	cases := []struct {
		name  string
		newS  func([]phys.Particle, Params) (*Session, error)
		pr    Params
		ps    []phys.Particle
		procs int
	}{
		{"ap-compute", NewAllPairs, Params{P: 4, C: 2, Law: phys.DefaultLaw(), Box: box2, DT: 1e-3},
			phys.InitUniform(4096, box2, 1), 1},
		{"cutoff-2d-migrating", NewCutoff, Params{P: 64, C: 4, Law: phys.DefaultLaw().WithCutoff(4), Box: box2, DT: 2e-3},
			phys.InitUniform(1024, box2, 1), 1},
		{"all-pairs c=3", NewAllPairs, Params{P: 9, C: 3, Law: phys.DefaultLaw(), Box: box2, DT: 1e-3},
			phys.InitUniform(216, box2, 1), 1},
		{"all-pairs c=2 socket", NewAllPairs, Params{P: 8, C: 2, Law: phys.DefaultLaw(), Box: box2, DT: 1e-3},
			phys.InitUniform(256, box2, 1), 2},
		// planCases' 2D cutoff run, whose particles cross teams every step.
		{"cutoff-2d c=2 socket", NewCutoff, moving.pr, moving.ps, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cg, err := newCommGrid(tc.pr.P, tc.pr.C)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var migrated int64 // reassignment bytes, summed over ranks and steps
			copies := make([]map[int][]byte, steps)
			for i := range copies {
				copies[i] = make(map[int][]byte)
			}
			run := func(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
				s, err := tc.newS(ps, pr)
				if err != nil {
					return nil, nil, err
				}
				var out []phys.Particle
				var rep *trace.Report
				for step := 0; step < steps; step++ {
					if out, rep, err = s.Advance(1); err != nil {
						return nil, nil, err
					}
					mu.Lock()
					teamCopies(s, copies[step])
					if pr.Proc == nil || pr.Proc.ID() == 0 {
						migrated += rep.Sum[trace.Reassign].Bytes
					}
					mu.Unlock()
				}
				return out, rep, nil
			}
			if tc.procs > 1 {
				runOverSockets(t, tc.procs, tc.pr, tc.ps, run)
			} else if _, _, err := run(tc.ps, tc.pr); err != nil {
				t.Fatal(err)
			}
			for step, c := range copies {
				if len(c) != tc.pr.P {
					t.Fatalf("step %d: %d ranks' copies recorded, want %d", step, len(c), tc.pr.P)
				}
				sameAsLeaders(t, fmt.Sprintf("step %d", step), cg, c)
			}
			if tc.pr.Law.Cutoff > 0 && migrated == 0 {
				t.Error("no particle changed team: the copies were not held to a reassignment")
			}
		})
	}
}
