package core

import (
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// TestPlanMatchesTheRun holds the plan to the step it describes: the
// skew and shift messages the plan ships are the ones a measured
// all-pairs step sends. (What a plan computes on is pinned through netsim's
// replay, TestBreakdownsPinned.)
func TestPlanMatchesTheRun(t *testing.T) {
	for _, pr := range []Params{defaultParams(8, 1), defaultParams(64, 8)} {
		plan, err := AllPairsPlan(pr.P, pr.C)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := advance(NewAllPairs, phys.InitLattice(4*pr.P, pr.Box, 3), pr, 1)
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
		}
		for _, ph := range []trace.Phase{trace.Skew, trace.Shift} {
			if got := rep.Sum[ph].Messages; got != sent[ph] {
				t.Errorf("p=%d c=%d %v: the run sends %d messages, the plan %d", pr.P, pr.C, ph, got, sent[ph])
			}
		}
	}
}
