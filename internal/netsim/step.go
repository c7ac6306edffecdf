package netsim

import (
	"math"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/phys"
)

// AllPairsStep simulates one timestep of the communication-avoiding
// all-pairs algorithm, message by message with link contention, and
// returns the per-phase critical-path breakdown. It is the event-driven
// counterpart of model.Evaluate for the AllPairs algorithm.
func AllPairsStep(mach machine.Machine, p, n, c int) (model.Breakdown, error) {
	plan, err := core.AllPairsPlan(p, c)
	if err != nil {
		return model.Breakdown{}, err
	}
	return replay(NewSim(mach, p), plan, n), nil
}

// replay executes one timestep of plan over n particles on s, a fresh
// simulator of the plan's ranks: the team broadcasts; one round per move
// position — every rank's move in world-rank order, the first round the
// skew, the others shifts — each followed by the compute of the ranks
// the plan has computing there; and the team reductions.
func replay(s *Sim, plan *core.Plan, n int) model.Breakdown {
	mach := s.net.mach
	npt := float64(n) / float64(len(plan.Teams))
	partBytes := int(math.Ceil(npt * phys.WireSize))
	forceBytes := int(math.Ceil(npt * 16))
	perSlotWork := npt * npt * mach.InteractionTime

	collective := func(phase string, op func([]int, int), bytes int) {
		s.Mark()
		for _, team := range plan.Teams {
			op(team, bytes)
		}
		s.ClosePhase(phase)
	}
	collective("bcast", s.Bcast, partBytes)

	positions, maxComputes := 0, 0
	for _, rp := range plan.Ranks {
		positions = max(positions, len(rp.Moves))
		k := 0
		for _, on := range rp.Computes {
			if on {
				k++
			}
		}
		maxComputes = max(maxComputes, k)
	}
	var msgs []Message
	for i := 0; i < positions; i++ {
		phase := "shift"
		if i == 0 {
			phase = "skew"
		}
		s.Mark()
		msgs = msgs[:0]
		for r, rp := range plan.Ranks {
			if i < len(rp.Moves) && rp.Moves[i] != r {
				msgs = append(msgs, Message{Src: r, Dst: rp.Moves[i], Bytes: partBytes})
			}
		}
		s.Round(msgs)
		s.ClosePhase(phase)
		for r, rp := range plan.Ranks {
			if i < len(rp.Computes) && rp.Computes[i] {
				s.Compute(r, perSlotWork)
			}
		}
	}

	collective("reduce", s.Reduce, forceBytes)

	return model.Breakdown{
		// The busiest rank's compute.
		Compute: float64(maxComputes) * perSlotWork,
		Bcast:   s.Phase("bcast"),
		Skew:    s.Phase("skew"),
		Shift:   s.Phase("shift"),
		Reduce:  s.Phase("reduce"),
	}
}
