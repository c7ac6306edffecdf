package core

import (
	"fmt"
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// sameReportCounts asserts two reports agree on every communication
// quantity (messages and bytes, critical-path and sum, per phase),
// ignoring only wall-clock time. This is the accounting half of the
// transport-fidelity contract: swapping the transport must not move a
// single counted message or byte.
func sameReportCounts(t *testing.T, typed, encoded *trace.Report) {
	t.Helper()
	if typed.Ranks != encoded.Ranks {
		t.Fatalf("rank count: typed %d, encoded %d", typed.Ranks, encoded.Ranks)
	}
	check := func(label string, a, b trace.PhaseStats) {
		if a.Messages != b.Messages || a.Bytes != b.Bytes ||
			a.RecvMessages != b.RecvMessages || a.RecvBytes != b.RecvBytes {
			t.Errorf("%s: typed {S=%d W=%d R=%d RW=%d}, encoded {S=%d W=%d R=%d RW=%d}",
				label, a.Messages, a.Bytes, a.RecvMessages, a.RecvBytes,
				b.Messages, b.Bytes, b.RecvMessages, b.RecvBytes)
		}
	}
	for _, ph := range trace.Phases() {
		check(fmt.Sprintf("critical-path %v", ph), typed.CriticalPath[ph], encoded.CriticalPath[ph])
		check(fmt.Sprintf("sum %v", ph), typed.Sum[ph], encoded.Sum[ph])
	}
}

// samePhysState asserts exact struct equality of two particle sets —
// not approximate agreement: the in-process and socket transports
// perform the identical floating-point operations in the identical
// order, so any difference at all is a transport bug.
func samePhysState(t *testing.T, typed, encoded []phys.Particle) {
	t.Helper()
	if len(typed) != len(encoded) {
		t.Fatalf("typed produced %d particles, encoded %d", len(typed), len(encoded))
	}
	for i := range typed {
		if typed[i] != encoded[i] {
			t.Fatalf("particle %d differs between transports:\n typed   %+v\n encoded %+v", i, typed[i], encoded[i])
		}
	}
}

// TestAllPairsTypedMatchesEncoded is the transport equivalence property
// test for the all-pairs algorithm: with identical inputs the zero-copy
// typed transport must reach the final state of the encoded run — the
// socket twin with one rank per process, where every message is encoded,
// crosses a process and is decoded into memory of its own — bit for
// bit, with identical message/word accounting. (The subtest names keep
// the overlap=false segment they had while a second, overlapped walk
// existed, so their IDs stay stable.)
func TestAllPairsTypedMatchesEncoded(t *testing.T) {
	cases := []struct{ p, c, n int }{
		{1, 1, 16},
		{4, 1, 24},
		{4, 2, 24},
		{8, 2, 32},
		{16, 4, 48},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p=%d/c=%d/n=%d/overlap=false", tc.p, tc.c, tc.n), func(t *testing.T) {
			t.Parallel()
			pr := defaultParams(tc.p, tc.c)
			checkSocketMatchesInProcess(t, tc.p, pr, phys.InitUniform(tc.n, pr.Box, 7), NewAllPairs, 4)
		})
	}
}

// TestCutoffTypedMatchesEncoded is the transport equivalence property
// test for the cutoff algorithm, covering both boundary conditions,
// and both dimensions (2D exercises per-step spatial migration), against
// the socket twin as TestAllPairsTypedMatchesEncoded does. The subtest
// names are kept as that test's are.
func TestCutoffTypedMatchesEncoded(t *testing.T) {
	cases := []struct {
		p, c, dim, n int
		boundary     phys.Boundary
	}{
		{8, 1, 1, 64, phys.Periodic},
		{16, 2, 1, 64, phys.Reflective},
		{16, 1, 2, 96, phys.Reflective},
		{32, 2, 2, 96, phys.Reflective},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("p=%d/c=%d/dim=%d/%v/overlap=false", tc.p, tc.c, tc.dim, tc.boundary), func(t *testing.T) {
			t.Parallel()
			pr := cutoffParams(tc.p, tc.c, tc.dim, tc.boundary)
			checkSocketMatchesInProcess(t, tc.p, pr, phys.InitUniform(tc.n, pr.Box, 11), NewCutoff, 3)
		})
	}
}
