package netsim

import (
	"fmt"
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

// CutoffStep simulates one timestep of the distance-limited algorithm in
// a reflective box of dim dimensions, with the cutoff rcFrac box lengths,
// through the event-driven network. Compute is charged only where the
// plan's window test passes, so the boundary load imbalance the paper
// discusses emerges from the event ordering.
func CutoffStep(mach machine.Machine, p, n, c int, rcFrac float64, dim int) (model.Breakdown, error) {
	plan, err := core.CutoffPlan(p, c, rcFrac, phys.Box{L: 1, Dim: dim, Boundary: phys.Reflective})
	if err != nil {
		return model.Breakdown{}, err
	}
	return replay(NewSim(mach, p), plan, n), nil
}

// replay executes one timestep of plan over n particles on s, a fresh
// simulator of the plan's ranks: the team broadcasts; one round per move
// position — every rank's move in world-rank order, the first round the
// skew, the others shifts — each followed by the compute of the ranks
// the plan has computing there; the team reductions; and the leaders'
// migration round.
func replay(s *Sim, plan *core.Plan, n int) model.Breakdown {
	mach := s.net.mach
	npt := float64(n) / float64(len(plan.Teams))
	partBytes := int(math.Ceil(npt * phys.WireSize))
	forceBytes := int(math.Ceil(npt * 16))
	migrBytes := int(math.Ceil(0.05*npt)) * phys.WireSize
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

	s.Mark()
	msgs = msgs[:0]
	for r, rp := range plan.Ranks {
		for _, to := range rp.Migrates {
			msgs = append(msgs, Message{Src: r, Dst: to, Bytes: migrBytes})
		}
	}
	s.Round(msgs)
	s.ClosePhase("reassign")

	return model.Breakdown{
		// The busiest rank's compute: an interior team's, which works on
		// every position of its window.
		Compute:  float64(maxComputes) * perSlotWork,
		Bcast:    s.Phase("bcast"),
		Skew:     s.Phase("skew"),
		Shift:    s.Phase("shift"),
		Reduce:   s.Phase("reduce"),
		Reassign: s.Phase("reassign"),
	}
}

// NaiveAllGatherStep simulates one timestep of the Section II-B particle
// decomposition: a ring allgather of all particle data (p−1 rounds of
// n/p-particle blocks) followed by the n²/p local interactions.
func NaiveAllGatherStep(mach machine.Machine, p, n int) (model.Breakdown, error) {
	if p <= 0 || n <= 0 {
		return model.Breakdown{}, fmt.Errorf("netsim: bad naive config p=%d n=%d", p, n)
	}
	s := NewSim(mach, p)
	blockBytes := int(math.Ceil(float64(n)/float64(p))) * phys.WireSize
	var b model.Breakdown
	s.Mark()
	for round := 0; round < p-1; round++ {
		msgs := make([]Message, 0, p)
		for r := 0; r < p; r++ {
			dst := (r + 1) % p
			if dst != r {
				msgs = append(msgs, Message{Src: r, Dst: dst, Bytes: blockBytes})
			}
		}
		s.Round(msgs)
	}
	s.ClosePhase("shift")
	b.Shift = s.Phase("shift")
	b.Compute = float64(n) / float64(p) * float64(n) * mach.InteractionTime
	return b, nil
}
