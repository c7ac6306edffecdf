package netsim

import (
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/place"
)

// PlacementRow is one candidate of a placement what-if: a rank→slot
// permutation, its hop-weighted traffic and the timestep replayed under
// it.
type PlacementRow struct {
	Searcher string // "identity", "greedy" or "anneal"
	Perm     []int  // rank r on torus slot Perm[r]
	HopBytes float64
	Step     model.Breakdown
	// Makespan is the replay's largest rank clock. Step.Total() adds
	// each phase's slowest rank, so it also counts the waits that a
	// placement moves from one phase to another.
	Makespan float64
}

// PlacementTable is a placement what-if over one plan: the identity row
// first, then a row per searcher.
type PlacementTable struct {
	Rows []PlacementRow
	// Chosen indexes the row with the smallest replayed step total, the
	// earliest on ties, so identity wins a tie.
	Chosen int
	// HopBytesBound is the co-location lower bound on any placement's
	// hop-bytes (bounds.HopBytesLowerBound).
	HopBytesBound float64
}

// PlacementWhatIf asks whether placing plan's ranks on mach's torus
// other than in rank order would shorten its timestep over n particles.
// It replays the step under the identity, tallying the bytes every rank
// sends every other; runs place.Greedy and place.Anneal (under seed) on
// that tally; replays the step under each permutation they return; and
// chooses by the replayed step, not by hop-bytes, which is only the
// searchers' objective.
func PlacementWhatIf(mach machine.Machine, plan *core.Plan, n int, seed uint64) (PlacementTable, error) {
	identity, traffic := identityReplay(mach, plan, n)
	tor := mach.TorusFor(len(plan.Ranks))
	ev, err := place.NewEvaluator(traffic, tor)
	if err != nil {
		return PlacementTable{}, err
	}
	identity.Perm = ev.Identity()
	tab := PlacementTable{
		Rows: []PlacementRow{
			identity,
			placedReplay(mach, plan, n, "greedy", place.Greedy(ev)),
			placedReplay(mach, plan, n, "anneal", place.Anneal(ev, seed)),
		},
		HopBytesBound: bounds.HopBytesLowerBound(traffic, tor.CoresPerNode),
	}
	for i := range tab.Rows {
		r := &tab.Rows[i]
		r.HopBytes = ev.Cost(r.Perm)
		if r.Step.Total() < tab.Rows[tab.Chosen].Step.Total() {
			tab.Chosen = i
		}
	}
	return tab, nil
}

// identityReplay replays plan's step with every rank on its own slot,
// and returns it with the bytes each rank sent each other, collectives
// and migration included.
func identityReplay(mach machine.Machine, plan *core.Plan, n int) (PlacementRow, [][]float64) {
	p := len(plan.Ranks)
	traffic := make([][]float64, p)
	for r := range traffic {
		traffic[r] = make([]float64, p)
	}
	s := NewSim(mach, p)
	s.net.traffic = traffic
	return PlacementRow{Searcher: "identity", Step: replay(s, plan, n), Makespan: s.Makespan()}, traffic
}

// placedReplay replays plan's step with rank r on slot perm[r].
func placedReplay(mach machine.Machine, plan *core.Plan, n int, searcher string, perm []int) PlacementRow {
	s := NewSim(mach, len(plan.Ranks))
	s.slot = perm
	return PlacementRow{Searcher: searcher, Perm: perm, Step: replay(s, plan, n), Makespan: s.Makespan()}
}
