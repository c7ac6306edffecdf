package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/phys"
	"repro/internal/trace"
)

// TestAllPairsCommunicationCounts pins the implementation to the paper's
// cost analysis: the instrumented runtime must reproduce the closed-form
// critical-path message and byte counts of Equation 5 exactly.
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
			_, rep, err := advance(NewAllPairs, ps, pr, 1)
			if err != nil {
				t.Fatalf("AllPairs: %v", err)
			}
			want := AllPairsExpectedCounts(tc.n, tc.p, tc.c)

			check := func(phase trace.Phase, field string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("%v %s: got %d, want %d", phase, field, got, want)
				}
			}
			check(trace.Broadcast, "sends", rep.CriticalPath[trace.Broadcast].Messages, want.BcastSends)
			check(trace.Broadcast, "bytes", rep.CriticalPath[trace.Broadcast].Bytes, want.BcastBytes)
			check(trace.Skew, "sends", rep.CriticalPath[trace.Skew].Messages, want.SkewSends)
			check(trace.Skew, "bytes", rep.CriticalPath[trace.Skew].Bytes, want.SkewBytes)
			check(trace.Shift, "sends", rep.CriticalPath[trace.Shift].Messages, want.ShiftSends)
			check(trace.Shift, "bytes", rep.CriticalPath[trace.Shift].Bytes, want.ShiftBytes)
			check(trace.Reduce, "sends", rep.CriticalPath[trace.Reduce].Messages, want.ReduceSends)
			check(trace.Reduce, "bytes", rep.CriticalPath[trace.Reduce].Bytes, want.ReduceBytes)
			check(trace.Reduce, "recvs", rep.CriticalPath[trace.Reduce].RecvMessages, want.ReduceRecvs)
		})
	}
}

// TestCutoff1DCommunicationCounts pins the cutoff implementation to the
// Section IV-B cost analysis: measured critical-path messages and bytes
// must match the closed forms exactly on uniformly occupied teams.
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
			ps := phys.InitLattice(tc.n, pr.Box, 3)
			_, rep, err := advance(NewCutoff, ps, pr, 1)
			if err != nil {
				t.Fatalf("Cutoff: %v", err)
			}
			T := tc.p / tc.c
			m := SpanFor(pr.Law.Cutoff, pr.Box.L, T)
			want, err := cutoff1DExpectedCounts(tc.n, tc.p, tc.c, m)
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, got, wantV int64) {
				t.Helper()
				if got != wantV {
					t.Errorf("%s: got %d, want %d", name, got, wantV)
				}
			}
			check("bcast sends", rep.CriticalPath[trace.Broadcast].Messages, want.BcastSends)
			check("bcast bytes", rep.CriticalPath[trace.Broadcast].Bytes, want.BcastBytes)
			check("skew sends", rep.CriticalPath[trace.Skew].Messages, want.SkewSends)
			check("skew bytes", rep.CriticalPath[trace.Skew].Bytes, want.SkewBytes)
			check("shift sends", rep.CriticalPath[trace.Shift].Messages, want.ShiftSends)
			check("shift bytes", rep.CriticalPath[trace.Shift].Bytes, want.ShiftBytes)
			check("reduce sends", rep.CriticalPath[trace.Reduce].Messages, want.ReduceSends)
			check("reduce bytes", rep.CriticalPath[trace.Reduce].Bytes, want.ReduceBytes)
			check("reduce recvs", rep.CriticalPath[trace.Reduce].RecvMessages, want.ReduceRecvs)
		})
	}
}

// TestCutoffReassignMessages pins the dimension-ordered reassignment's
// message count: an interior leader sends and receives 2·dim messages a
// step — one toward each side of each axis, empty or not — against the
// 3^dim − 1 of an exchange with every Chebyshev neighbor. The maximum
// over ranks is an interior leader's; in a periodic box every leader is
// interior, so the sum over ranks is the leaders' count times as much.
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
				t.Errorf("an interior leader sent %d and received %d reassignment messages in %d steps, want %d each (2·dim a step)",
					got.Messages, got.RecvMessages, steps, want)
			}
			if tc.boundary == phys.Periodic {
				leaders := int64(tc.p / tc.c)
				if sum := rep.Sum[trace.Reassign].Messages; sum != leaders*want {
					t.Errorf("%d leaders sent %d reassignment messages in all, want %d", leaders, sum, leaders*want)
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
		wantWords := allPairsShiftWords(n, p, c)
		if got := float64(shift) / phys.WireSize; got != wantWords {
			t.Errorf("c=%d: shift words %.0f, want %.0f", c, got, wantWords)
		}
		if prev >= 0 && shift*2 != prev {
			t.Errorf("c=%d: shift bytes %d, want exactly half of previous %d", c, shift, prev)
		}
		prev = shift
	}
}

// cutoff1DExpectedCounts returns the exact critical-path counts for one
// timestep of the 1D distance-limited algorithm with uniform team
// occupancy (n divisible by and laid out across p/c teams), cutoff span
// m, and tree collectives. The exchange frame adds 4 bytes of source
// team id to every skew/shift message. Reassignment bytes depend on the
// particle trajectories, so only its message count (2 neighbor exchanges
// for interior teams) is predicted.
func cutoff1DExpectedCounts(n, p, c, m int) (ExpectedCounts, error) {
	sched, err := NewCutoffSchedule(m, c, 1)
	if err != nil {
		return ExpectedCounts{}, err
	}
	T := p / c
	npt := n / T
	partBytes := int64(npt) * phys.WireSize
	frameBytes := partBytes + 4
	forceBytes := int64(npt) * 16
	logc := int64(0)
	if c > 1 {
		logc = int64(math.Ceil(math.Log2(float64(c))))
	}
	var e ExpectedCounts
	e.BcastSends = logc
	e.BcastBytes = logc * partBytes
	// Every layer's first move is non-zero except the layer whose first
	// window offset is the origin; the critical path is any other layer.
	e.SkewSends = 1
	e.SkewBytes = frameBytes
	e.ShiftSends = int64(sched.Steps(0) - 1) // layer 0 takes the most steps
	e.ShiftBytes = e.ShiftSends * frameBytes
	if c > 1 {
		e.ReduceSends = 1
		e.ReduceBytes = forceBytes
		e.ReduceRecvs = logc
	}
	return e, nil
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

// allPairsShiftWords returns the total shift-phase traffic per rank per
// timestep in particles: (p/c²)·(nc/p) = n/c, the W_ca = O(n/c) term of
// Equation 5.
func allPairsShiftWords(n, p, c int) float64 {
	T := p / c
	if T <= 1 || c >= T {
		return 0
	}
	return float64(p/(c*c)) * float64(n*c) / float64(p)
}
