package obs

import "testing"

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
