package netsim

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/phys"
	"repro/internal/trace"
)

// AllPairsStep simulates one timestep of the communication-avoiding
// all-pairs algorithm, message by message with link contention, and
// returns the per-phase critical-path breakdown. It is the event-driven
// counterpart of model.Evaluate for the AllPairs algorithm.
func AllPairsStep(mach machine.Machine, p, n, c int) (model.Breakdown, error) {
	box := phys.NewBox(16, 2, phys.Reflective)
	sess, err := core.NewAllPairs(phys.InitLattice(n, box, 1), core.Params{P: p, C: c, Law: phys.DefaultLaw(), Box: box, DT: 1e-3})
	if err != nil {
		return model.Breakdown{}, err
	}
	plan, err := sess.Plan()
	if err != nil {
		return model.Breakdown{}, err
	}
	return replay(NewSim(mach, p), plan, n), nil
}

// replay executes one timestep of plan over n particles on s, a fresh
// simulator of the plan's ranks, charging every message the bytes the
// plan records: the team broadcasts; one round per ring position —
// every rank's move to it in world-rank order, the first round the
// skew, the others shifts — each followed by the compute of the ranks
// that visit a block there; and the team reductions.
func replay(s *Sim, plan *core.Plan, n int) model.Breakdown {
	mach := s.net.mach
	npt := float64(n) / float64(len(plan.Teams))
	perSlotWork := npt * npt * mach.InteractionTime

	// Every message of a team's broadcast or reduction carries the
	// payload of the first one its leader sends or receives.
	collective := func(name string, ph trace.Phase, op func([]int, int)) {
		s.Mark()
		for _, team := range plan.Teams {
			for _, o := range plan.Ranks[team[0]] {
				if o.Phase == ph {
					op(team, max(o.Bytes, o.RecvBytes))
					break
				}
			}
		}
		s.ClosePhase(name)
	}
	collective("bcast", trace.Broadcast, s.Bcast)

	// A skew is round 0; a shift belongs to the position of the visit
	// that follows it.
	var rounds [][]Message // by ring position
	var visits [][]int
	grow := func(i int) {
		for len(rounds) <= i {
			rounds, visits = append(rounds, nil), append(visits, nil)
		}
	}
	maxComputes := 0
	for r, ops := range plan.Ranks {
		var shift []Message
		computes := 0
		for _, o := range ops {
			switch {
			case o.Kind == core.OpSendrecv && o.Phase == trace.Skew:
				grow(0)
				rounds[0] = append(rounds[0], Message{Src: r, Dst: o.To, Bytes: o.Bytes})
			case o.Kind == core.OpSendrecv:
				shift = append(shift, Message{Src: r, Dst: o.To, Bytes: o.Bytes})
			case o.Kind == core.OpVisit:
				grow(o.At)
				rounds[o.At] = append(rounds[o.At], shift...)
				shift = shift[:0]
				visits[o.At] = append(visits[o.At], r)
				computes++
			}
		}
		maxComputes = max(maxComputes, computes)
	}
	for i, msgs := range rounds {
		phase := "shift"
		if i == 0 {
			phase = "skew"
		}
		s.Mark()
		s.Round(msgs)
		s.ClosePhase(phase)
		for _, r := range visits[i] {
			s.Compute(r, perSlotWork)
		}
	}

	collective("reduce", trace.Reduce, s.Reduce)

	return model.Breakdown{
		// The busiest rank's compute.
		Compute: float64(maxComputes) * perSlotWork,
		Bcast:   s.Phase("bcast"),
		Skew:    s.Phase("skew"),
		Shift:   s.Phase("shift"),
		Reduce:  s.Phase("reduce"),
	}
}
