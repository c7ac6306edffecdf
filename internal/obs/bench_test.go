package obs

import (
	"sync/atomic"
	"testing"
)

// BenchmarkObsDisabled measures the cost of the fully disabled
// observability path — a nil tracer and nil instruments on every
// hot-path call site. This is what every Send/Recv pays when
// observation is off, so it must stay in the single-digit nanoseconds
// with zero allocations (the allocation half is asserted by
// TestDisabledPathAllocs and re-checked here).
func BenchmarkObsDisabled(b *testing.B) {
	var tr *Tracer
	var reg *Registry
	ctr := reg.Counter("x")
	h := reg.Histogram("x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(1, 2, 3, 0)
		tr.Phase(0)
		ctr.Inc()
		h.Observe(int64(i))
	}
}

// BenchmarkObsEnabled is the enabled-path counterpart: one ring write
// per event plus the time read, for sizing the observation overhead.
func BenchmarkObsEnabled(b *testing.B) {
	tl := NewTimeline(1, DefaultCapacity)
	tr := tl.Rank(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(1, 2, 3, 0)
	}
}

// BenchmarkRegistryEnabled sizes the enabled metrics path: atomic adds
// on pre-resolved instruments.
func BenchmarkRegistryEnabled(b *testing.B) {
	reg := NewRegistry()
	ctr := reg.Counter("x")
	h := reg.Histogram("x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr.Inc()
		h.Observe(int64(i))
	}
}

// BenchmarkCommMatrixCount prices the matrix's per-message counting as
// an observed run does it: each goroutine is a distinct rank that counts
// a send to its ring successor and a receive from its predecessor, all
// into one matrix, under one communication phase. ns/op is one send and
// one receive.
func BenchmarkCommMatrixCount(b *testing.B) {
	const phases, ranks, shift = 7, 64, 3
	m := NewCommMatrix(phases, ranks)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := int(next.Add(1)-1) % ranks
		for pb.Next() {
			m.CountSend(shift, r, (r+1)%ranks, 64)
			m.CountRecv(shift, (r+ranks-1)%ranks, r, 64)
		}
	})
}
