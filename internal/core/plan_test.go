package core

import (
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// TestPlanMatchesTheRun holds each plan to the driver it describes: the
// skew, shift and migration messages the plan ships are the ones a
// measured step of the driver sends. (What a plan computes on is pinned
// through netsim's replay, TestBreakdownsPinned.)
func TestPlanMatchesTheRun(t *testing.T) {
	for _, pr := range []Params{
		defaultParams(8, 1, 1),
		defaultParams(64, 8, 1),
		cutoffParams(24, 3, 1, phys.Periodic),
		cutoffParams(64, 4, 2, phys.Reflective),
		cutoffParams(64, 4, 2, phys.Periodic),
	} {
		pr.Steps = 1
		plan, err := AllPairsPlan(pr.P, pr.C)
		run := AllPairs
		if pr.Law.Cutoff > 0 {
			plan, err = CutoffPlan(pr.P, pr.C, pr.Law.Cutoff, pr.Box)
			run = Cutoff
		}
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := run(phys.InitLattice(4*pr.P, pr.Box, 3), pr)
		if err != nil {
			t.Fatal(err)
		}
		sent := map[trace.Phase]int64{}
		for r, rp := range plan.Ranks {
			for i, to := range rp.Moves {
				if to != r && i == 0 {
					sent[trace.Skew]++
				} else if to != r {
					sent[trace.Shift]++
				}
			}
			sent[trace.Reassign] += int64(len(rp.Migrates))
		}
		for _, ph := range []trace.Phase{trace.Skew, trace.Shift, trace.Reassign} {
			if got := rep.Sum[ph].Messages; got != sent[ph] {
				t.Errorf("p=%d c=%d cutoff=%g %v: the run sends %d messages, the plan %d", pr.P, pr.C, pr.Law.Cutoff, ph, got, sent[ph])
			}
		}
	}
}
