package netsim

import (
	"slices"

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
// plan records: one round per ring position — every rank's move to it
// in world-rank order, the first round the skew, the others shifts —
// each followed by the compute of the ranks that visit a block there;
// then the force allreduce, a round per level of its messages
// (causalRounds): one per doubling exchange on a power-of-two team.
func replay(s *Sim, plan *core.Plan, n int) model.Breakdown {
	mach := s.net.mach
	npt := float64(n) / float64(len(plan.Teams))
	perSlotWork := npt * npt * mach.InteractionTime

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

	s.Mark()
	for _, msgs := range causalRounds(plan, trace.Reduce) {
		s.Round(msgs)
	}
	s.ClosePhase("reduce")

	return model.Breakdown{
		// The busiest rank's compute.
		Compute: float64(maxComputes) * perSlotWork,
		Skew:    s.Phase("skew"),
		Shift:   s.Phase("shift"),
		Reduce:  s.Phase("reduce"),
	}
}

// causalRounds groups the messages the plan's ranks send in phase ph
// into rounds by causal depth: a message goes in the round after the
// latest round of the messages its sender received before sending it,
// round 0 if none. An exchange (core.OpSendrecv) sends before it
// receives, so round j of recursive doubling is every rank's j-th
// exchange; a tree's message waits for those of the subtree below it.
// Within a round, messages are in world-rank order of their senders.
func causalRounds(plan *core.Plan, ph trace.Phase) [][]Message {
	queued := map[[2]int][]int{} // rounds of the messages sent, not yet received, by (src, dst)
	at := make([]int, len(plan.Ranks))
	round := make([]int, len(plan.Ranks)) // of each rank's next send
	sent := make([]bool, len(plan.Ranks)) // the send half of op at is done
	var rounds [][]Message
	for progress := true; progress; {
		progress = false
		for r, ops := range plan.Ranks {
			for ; at[r] < len(ops); at[r]++ {
				o := ops[at[r]]
				if o.Phase != ph {
					continue
				}
				if o.To >= 0 && !sent[r] {
					for len(rounds) <= round[r] {
						rounds = append(rounds, nil)
					}
					rounds[round[r]] = append(rounds[round[r]], Message{Src: r, Dst: o.To, Bytes: o.Bytes})
					queued[[2]int{r, o.To}] = append(queued[[2]int{r, o.To}], round[r])
					sent[r], progress = true, true
				}
				if o.From >= 0 {
					q := queued[[2]int{o.From, r}]
					if len(q) == 0 {
						break // the message is not sent yet
					}
					round[r] = max(round[r], q[0]+1)
					queued[[2]int{o.From, r}] = q[1:]
					progress = true
				}
				sent[r] = false
			}
		}
	}
	for _, msgs := range rounds {
		slices.SortStableFunc(msgs, func(a, b Message) int { return a.Src - b.Src })
	}
	return rounds
}
