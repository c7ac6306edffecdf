package netsim

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/phys"
	"repro/internal/trace"
)

func TestTransferBasics(t *testing.T) {
	n := NewNetwork(machine.Generic(), 8)
	// Same-rank/same-node transfer is the local cost.
	at := n.Transfer(0, 0, 0, 1000)
	mach := machine.Generic()
	if want := mach.AlphaLocal + 1000*mach.BetaLocal; at != want {
		t.Errorf("local transfer arrival %.3g, want %.3g", at, want)
	}
	// Remote transfer includes alpha, serialization and hop latency.
	at = n.Transfer(0, 0, 1, 1000)
	if at <= mach.Alpha+1000*mach.Beta {
		t.Errorf("remote transfer %.3g missing hop latency", at)
	}
	if n.Messages != 2 {
		t.Errorf("message counter %d, want 2", n.Messages)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	mach := machine.Generic()
	n := NewNetwork(mach, 8)
	// Two messages over the same first link at the same time: the
	// second must finish later than the first.
	a1 := n.Transfer(0, 0, 1, 10000)
	a2 := n.Transfer(0, 0, 1, 10000)
	if a2 <= a1 {
		t.Errorf("contended transfer %.3g not after first %.3g", a2, a1)
	}
	if a2-a1 < 10000*mach.Beta*0.9 {
		t.Errorf("second transfer delayed by %.3g, want about one serialization time %.3g", a2-a1, 10000*mach.Beta)
	}
}

func TestRoundAdvancesReceivers(t *testing.T) {
	s := NewSim(machine.Generic(), 4)
	s.Round([]Message{{Src: 0, Dst: 1, Bytes: 100}, {Src: 1, Dst: 0, Bytes: 100}})
	if makespan(s) <= 0 {
		t.Error("round left all clocks at zero")
	}
}

// TestAllreduceRounds: the replay's allreduce takes its rounds from the
// plan's own messages. A power-of-two team's are its doubling rounds —
// in round j every rank exchanges with the member whose team index
// differs in bit j — and a team of three reduces to its leader in one
// round and broadcasts the total from it in the next.
func TestAllreduceRounds(t *testing.T) {
	plan := func(p, c int) *core.Plan {
		box := phys.NewBox(16, 2, phys.Reflective)
		s, err := core.NewAllPairs(phys.InitLattice(4*p, box, 1), core.Params{P: p, C: c, Law: phys.DefaultLaw(), Box: box, DT: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	pl := plan(64, 8)
	member := map[int][2]int{} // world rank -> (team, index in it)
	for k, team := range pl.Teams {
		for i, r := range team {
			member[r] = [2]int{k, i}
		}
	}
	rounds := causalRounds(pl, trace.Reduce)
	if len(rounds) != 3 {
		t.Fatalf("c=8: %d rounds, want log₂ 8 = 3", len(rounds))
	}
	for j, msgs := range rounds {
		if len(msgs) != 64 {
			t.Errorf("c=8 round %d: %d messages, want one from each of the 64 ranks", j, len(msgs))
		}
		for _, m := range msgs {
			src, dst := member[m.Src], member[m.Dst]
			if src[0] != dst[0] || src[1]^dst[1] != 1<<j {
				t.Errorf("c=8 round %d: rank %d (team %d, index %d) sends to rank %d (team %d, index %d)", j, m.Src, src[0], src[1], m.Dst, dst[0], dst[1])
			}
		}
	}
	pl = plan(9, 3)
	rounds = causalRounds(pl, trace.Reduce)
	var perRound []int
	for _, msgs := range rounds {
		perRound = append(perRound, len(msgs))
	}
	// Round 0: both non-leaders of each of the 3 teams send to their
	// leader; round 1: each leader sends the total to both.
	if !slices.Equal(perRound, []int{6, 6}) {
		t.Errorf("c=3: messages per round %v, want [6 6]", perRound)
	}
}

func TestAllPairsStepAgainstModel(t *testing.T) {
	// The event-driven simulation and the closed-form model must agree
	// within a small factor (the simulator sees contention the closed
	// form ignores; the closed form has calibrated overheads). The
	// configurations are latency-dominated — small per-rank payloads at
	// many ranks — which is the regime of the paper's experiments (a
	// few hundred bytes per message on 24K+ cores).
	mach := machine.Generic()
	for _, tc := range []struct{ p, n, c int }{
		{64, 1024, 1},
		{64, 1024, 2},
		{64, 1024, 4},
		{64, 1024, 8},
		{256, 4096, 4},
	} {
		sim, err := AllPairsStep(mach, tc.p, tc.n, tc.c)
		if err != nil {
			t.Fatalf("p=%d c=%d: %v", tc.p, tc.c, err)
		}
		mod, err := model.Evaluate(model.Config{Machine: mach, Alg: model.AllPairs, P: tc.p, N: tc.n, C: tc.c})
		if err != nil {
			t.Fatalf("p=%d c=%d: %v", tc.p, tc.c, err)
		}
		if sim.Compute != mod.Compute {
			t.Errorf("p=%d c=%d: compute %.6g (sim) != %.6g (model)", tc.p, tc.c, sim.Compute, mod.Compute)
		}
		ratio := sim.Comm() / mod.Comm()
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("p=%d c=%d: sim comm %.6g vs model %.6g (ratio %.2f) disagree beyond 5x",
				tc.p, tc.c, sim.Comm(), mod.Comm(), ratio)
		}
	}
}

// TestCommWithinModel holds `nbody validate`'s netsim-vs-model gate at its
// default configuration (Generic machine, p = 64, n = 512): the replayed
// communication time stays within a factor of two of the analytic
// model's for every c. Measured ratios are 0.74, 1.00, 0.81 and 1.19.
func TestCommWithinModel(t *testing.T) {
	mach := machine.Generic()
	const p, n = 64, 512
	for _, c := range []int{1, 2, 4, 8} {
		sim, err := AllPairsStep(mach, p, n, c)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		mod, err := model.Evaluate(model.Config{Machine: mach, Alg: model.AllPairs, P: p, N: n, C: c})
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if ratio := sim.Comm() / mod.Comm(); ratio < 0.5 || ratio > 2 {
			t.Errorf("c=%d: netsim comm %.4g / model comm %.4g = %.2f, outside [0.5, 2]", c, sim.Comm(), mod.Comm(), ratio)
		}
	}
}

func TestAllPairsStepReplicationReducesComm(t *testing.T) {
	// In the latency-dominated regime, replication strictly reduces
	// simulated communication, contention included.
	mach := machine.Generic()
	prev := -1.0
	for _, c := range []int{1, 2, 4} {
		b, err := AllPairsStep(mach, 64, 1024, c)
		if err != nil {
			t.Fatal(err)
		}
		comm := b.Comm()
		if prev > 0 && comm >= prev {
			t.Errorf("c=%d: simulated comm %.6g did not drop from %.6g", c, comm, prev)
		}
		prev = comm
	}
}

func TestBandwidthBoundShiftContention(t *testing.T) {
	// With large per-rank payloads, a shift by c > 1 shares each torus
	// link among c messages; the simulator must expose that contention
	// (per-round cost grows), which the closed-form model ignores. This
	// is the regime where replication's bandwidth gain is an endpoint
	// effect, not a per-link one.
	mach := machine.Generic()
	b1, err := AllPairsStep(mach, 64, 65536, 1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := AllPairsStep(mach, 64, 65536, 2)
	if err != nil {
		t.Fatal(err)
	}
	perRound1 := b1.Shift / 64 // p/c² rounds
	perRound2 := b2.Shift / 16
	if perRound2 < 1.5*perRound1 {
		t.Errorf("expected contention to inflate per-round shift: c=1 %.3g vs c=2 %.3g", perRound1, perRound2)
	}
}

func TestAllPairsStepRejectsBadConfig(t *testing.T) {
	if _, err := AllPairsStep(machine.Generic(), 8, 64, 4); err == nil {
		t.Error("c²∤p should error")
	}
	if _, err := AllPairsStep(machine.Generic(), 0, 64, 1); err == nil {
		t.Error("p=0 should error")
	}
}

// makespan returns the largest rank clock of s.
func makespan(s *Sim) float64 {
	var m float64
	for _, c := range s.clock {
		m = max(m, c)
	}
	return m
}
