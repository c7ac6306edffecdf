package core

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/bounds"
	"repro/internal/phys"
	"repro/internal/trace"
)

// TestAllPairsCommunicationCounts pins the step to its cost analysis:
// the evaluated step's critical path is the closed form of the schedule
// the code runs (eq5) exactly, and the instrumented runtime counts the
// evaluated step.
func TestAllPairsCommunicationCounts(t *testing.T) {
	cases := []struct{ p, c, n int }{
		{4, 1, 16},
		{4, 2, 16},
		{16, 2, 32},
		{16, 4, 32},
		{64, 2, 128},
		{64, 4, 128},
		{64, 8, 128},
		{36, 6, 72},
		{48, 4, 96}, // non-power-of-two team count
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p=%d/c=%d/n=%d", tc.p, tc.c, tc.n), func(t *testing.T) {
			t.Parallel()
			pr := defaultParams(tc.p, tc.c)
			ps := phys.InitUniform(tc.n, pr.Box, 5)
			s, err := NewAllPairs(ps, pr)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := s.Plan()
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := s.Advance(1)
			if err != nil {
				t.Fatalf("AllPairs: %v", err)
			}
			got, want := pl.Report().CriticalPath, eq5(tc.n, tc.p, tc.c)
			for _, ph := range []trace.Phase{trace.Broadcast, trace.Skew, trace.Shift, trace.Reduce} {
				if got[ph].Messages != want[ph].Messages || got[ph].Bytes != want[ph].Bytes {
					t.Errorf("%v: the evaluated step sends %d messages of %d bytes, the closed form %d of %d",
						ph, got[ph].Messages, got[ph].Bytes, want[ph].Messages, want[ph].Bytes)
				}
			}
			if g, w := got[trace.Reduce].RecvMessages, want[trace.Reduce].RecvMessages; g != w {
				t.Errorf("allreduce: the evaluated step receives %d messages, the closed form %d", g, w)
			}
			samePhases(t, "measured critical path", rep.CriticalPath, got)
		})
	}
}

// eq5 is Equation 5 made exact for the schedule the code runs: one
// step's critical path of Algorithm 1 with n particles on p ranks at
// replication factor c — the most messages and bytes a rank sends per
// phase, and the most it receives in the allreduce. The paper's
// schedule broadcasts each team's block from its leader, ⌈log₂ c⌉
// messages of it; here every member keeps a copy, so there is no
// broadcast, and the reduce is an allreduce of the forces.
func eq5(n, p, c int) trace.PhaseTable {
	T := p / c
	part := int64(n/T) * phys.WireSize   // a team's block
	logc := int64(bits.Len(uint(c - 1))) // ⌈log₂ c⌉
	var e trace.PhaseTable
	// Skew: every non-zero row sends one message (none when T == 1).
	if T > 1 && c > 1 {
		e[trace.Skew] = trace.PhaseStats{Messages: 1, Bytes: part}
	}
	// Shift: p/c² steps of one message each, n/c particles in all,
	// unless the shift is the identity (c == T).
	if T > 1 && c < T {
		e[trace.Shift] = trace.PhaseStats{Messages: int64(p / (c * c)), Bytes: int64(p/(c*c)) * part}
	}
	// Allreduce of the n/T forces: on a power-of-two team every rank
	// sends and receives log₂ c of them, one per doubling round. On any
	// other the leader receives its ⌈log₂ c⌉ children's sums and sends
	// the total back to them, and no member passes more.
	if c > 1 {
		e[trace.Reduce] = trace.PhaseStats{Messages: logc, Bytes: logc * int64(n/T) * 16, RecvMessages: logc}
	}
	return e
}

// samePhases holds a measured table to an evaluated one: every
// communication phase's messages and bytes, sent and received, and only
// the messages of the reassignment, whose bytes the motion decides.
func samePhases(t *testing.T, label string, got, want trace.PhaseTable) {
	t.Helper()
	for _, ph := range trace.CommPhases() {
		g, w := got[ph], want[ph]
		if ph == trace.Reassign {
			g.Bytes, g.RecvBytes = 0, 0
		}
		if g.Messages != w.Messages || g.Bytes != w.Bytes || g.RecvMessages != w.RecvMessages || g.RecvBytes != w.RecvBytes {
			t.Errorf("%s %v: sent %d msgs %d bytes, received %d msgs %d bytes; the evaluated step %d, %d, %d, %d",
				label, ph, g.Messages, g.Bytes, g.RecvMessages, g.RecvBytes, w.Messages, w.Bytes, w.RecvMessages, w.RecvBytes)
		}
	}
}

// TestCutoff1DCommunicationCounts holds the measured critical path of
// the 1D cutoff step to the evaluated one, every phase.
func TestCutoff1DCommunicationCounts(t *testing.T) {
	cases := []struct{ p, c, n int }{
		{8, 1, 64},
		{16, 2, 64},
		{16, 1, 64},
		{32, 4, 128},
		{24, 3, 96},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p=%d/c=%d/n=%d", tc.p, tc.c, tc.n), func(t *testing.T) {
			t.Parallel()
			pr := cutoffParams(tc.p, tc.c, 1, phys.Reflective)
			s, err := NewCutoff(phys.InitLattice(tc.n, pr.Box, 3), pr)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := s.Plan()
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := s.Advance(1)
			if err != nil {
				t.Fatalf("Cutoff: %v", err)
			}
			samePhases(t, "critical path", rep.CriticalPath, pl.Report().CriticalPath)
		})
	}
}

// TestCutoffReassignMessages pins the dimension-ordered reassignment's
// message count: an interior rank sends and receives 2·dim messages a
// step — one toward each side of each axis, empty or not — against the
// 3^dim − 1 of an exchange with every Chebyshev neighbor. Every layer
// migrates its own copy of the teams, so the maximum over ranks is an
// interior rank's; in a periodic box every rank is interior, so the sum
// over ranks is p times as much.
func TestCutoffReassignMessages(t *testing.T) {
	const steps = 3
	for _, tc := range []struct {
		p, c, dim, n int
		boundary     phys.Boundary
	}{
		{16, 2, 1, 64, phys.Reflective},
		{16, 2, 1, 64, phys.Periodic},
		{64, 4, 2, 1024, phys.Reflective},
		{64, 4, 2, 1024, phys.Periodic},
		{32, 2, 2, 1024, phys.Periodic},
	} {
		t.Run(fmt.Sprintf("p=%d/c=%d/dim=%d/%v", tc.p, tc.c, tc.dim, tc.boundary), func(t *testing.T) {
			t.Parallel()
			pr := cutoffParams(tc.p, tc.c, tc.dim, tc.boundary)
			ps := phys.InitUniform(tc.n, pr.Box, 7)
			for i := range ps {
				// Up to a tenth of a team width a step: some particles
				// migrate every step, none further than one team.
				ps[i].Vel.X = float64(i%11-5) * 20
				if tc.dim == 2 {
					ps[i].Vel.Y = float64(i%13-6) * 20
				}
			}
			_, rep, err := advance(NewCutoff, ps, pr, steps)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(2 * tc.dim * steps)
			got := rep.CriticalPath[trace.Reassign]
			if got.Messages != want || got.RecvMessages != want {
				t.Errorf("an interior rank sent %d and received %d reassignment messages in %d steps, want %d each (2·dim a step)",
					got.Messages, got.RecvMessages, steps, want)
			}
			if tc.boundary == phys.Periodic {
				if sum := rep.Sum[trace.Reassign].Messages; sum != int64(tc.p)*want {
					t.Errorf("%d ranks sent %d reassignment messages in all, want %d", tc.p, sum, int64(tc.p)*want)
				}
			}
			if rep.Sum[trace.Reassign].Bytes == 0 {
				t.Error("no particle migrated: the count is not measured under traffic")
			}
		})
	}
}

// TestCutoffMeetsLowerBounds checks the Section IV optimality claim on
// real executions: measured S and W are within constant factors of
// Equation 3 evaluated at M = c·n/p and k from Equation 7.
func TestCutoffMeetsLowerBounds(t *testing.T) {
	const n, p = 128, 32
	for _, c := range []int{1, 2, 4} {
		pr := cutoffParams(p, c, 1, phys.Reflective)
		ps := phys.InitLattice(n, pr.Box, 3)
		_, rep, err := advance(NewCutoff, ps, pr, 1)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		T := p / c
		m := SpanFor(pr.Law.Cutoff, pr.Box.L, T)
		k := 2 * float64(m*c) / p * n // Equation 7: k = (2·m·c/p)·n
		M := bounds.MemoryPerRank(n, p, c)
		sLB := bounds.CutoffLatency(n, p, k, M)
		wLB := bounds.CutoffBandwidth(n, p, k, M)
		s := float64(rep.S())
		w := float64(rep.W()) / phys.WireSize
		if s < sLB || w < wLB {
			t.Errorf("c=%d: measured S=%.1f W=%.1f below bounds %.1f/%.1f", c, s, w, sLB, wLB)
		}
		if r := bounds.OptimalityRatio(s, sLB); r > 64 {
			t.Errorf("c=%d: cutoff latency ratio %.1f not O(1)", c, r)
		}
		if r := bounds.OptimalityRatio(w, wLB); r > 64 {
			t.Errorf("c=%d: cutoff bandwidth ratio %.1f not O(1)", c, r)
		}
	}
}

// TestAllPairsCountsScaleWithSteps confirms per-step accounting is
// linear in the number of timesteps.
func TestAllPairsCountsScaleWithSteps(t *testing.T) {
	pr := defaultParams(16, 2)
	ps := phys.InitUniform(32, pr.Box, 5)
	_, rep1, err := advance(NewAllPairs, ps, pr, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, rep4, err := advance(NewAllPairs, ps, pr, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range trace.CommPhases() {
		if got, want := rep4.CriticalPath[ph].Messages, 4*rep1.CriticalPath[ph].Messages; got != want {
			t.Errorf("%v: 4-step sends %d != 4×1-step %d", ph, got, want)
		}
	}
}

// TestAllPairsMeetsLowerBounds checks the headline claim: for every c the
// measured critical-path communication is within a constant factor of
// the Section II lower bounds evaluated at M = c·n/p, i.e. the algorithm
// is communication-optimal at every replication factor.
func TestAllPairsMeetsLowerBounds(t *testing.T) {
	const n, p = 128, 64
	for _, c := range []int{1, 2, 4, 8} {
		pr := defaultParams(p, c)
		ps := phys.InitUniform(n, pr.Box, 3)
		_, rep, err := advance(NewAllPairs, ps, pr, 1)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		M := bounds.MemoryPerRank(n, p, c)
		sLB := bounds.DirectLatency(n, p, M)
		wLB := bounds.DirectBandwidth(n, p, M)

		// Measured S: message events on the critical path. Measured W:
		// traffic in particles (52-byte wire words).
		s := float64(rep.S())
		w := float64(rep.W()) / phys.WireSize

		if s < sLB {
			t.Errorf("c=%d: measured S=%.1f below lower bound %.1f — accounting bug", c, s, sLB)
		}
		if w < wLB {
			t.Errorf("c=%d: measured W=%.1f below lower bound %.1f — accounting bug", c, w, wLB)
		}
		// Optimality: within a modest constant (plus log c collective
		// terms) of the bound.
		if r := bounds.OptimalityRatio(s, sLB); r > 32 {
			t.Errorf("c=%d: latency ratio %.1f not O(1)", c, r)
		}
		if r := bounds.OptimalityRatio(w, wLB); r > 32 {
			t.Errorf("c=%d: bandwidth ratio %.1f not O(1)", c, r)
		}
	}
}

// TestReplicationReducesCommunication verifies the monotone part of the
// paper's Figure 2: growing c strictly reduces shift-phase traffic, the
// dominant communication term, by roughly a factor of c.
func TestReplicationReducesCommunication(t *testing.T) {
	const n, p = 256, 64
	prev := int64(-1)
	for _, c := range []int{1, 2, 4} {
		pr := defaultParams(p, c)
		ps := phys.InitUniform(n, pr.Box, 3)
		_, rep, err := advance(NewAllPairs, ps, pr, 1)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		shift := rep.CriticalPath[trace.Shift].Bytes
		if want := eq5(n, p, c)[trace.Shift].Bytes; shift != want {
			t.Errorf("c=%d: shift bytes %d, Equation 5 %d", c, shift, want)
		}
		if prev >= 0 && shift*2 != prev {
			t.Errorf("c=%d: shift bytes %d, want exactly half of previous %d", c, shift, prev)
		}
		prev = shift
	}
}

// allPairsPairEvals returns the exact number of pair-force evaluations
// the CA all-pairs algorithm performs per timestep, summed over all
// ranks: each of the T = p/c teams updates its n/T targets against all n
// sources exactly once, and the diagonal visit (the team's own block
// replicated back at it) shares all n/T IDs, which Accumulate skips
// without counting. Each team therefore contributes (n/T)·n − n/T
// and the total is n² − n regardless of p
// and c — replication changes which rank evaluates a pair, never how
// many evaluations happen. Instrumented runs expose the measured count
// as the "compute.pairs" metrics counter, which the counts tests pin to
// this closed form.
func allPairsPairEvals(n, p, c int) int64 {
	T := p / c
	npt := n / T
	return int64(T) * int64(npt*n-npt)
}
