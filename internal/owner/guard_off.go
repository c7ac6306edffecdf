//go:build !obsdebug

// Package owner holds the goroutine-ownership check of the
// observability types that one goroutine at a time may use (trace.Stats,
// record.Recorder, comm's per-rank tallies). The check runs only in builds with the obsdebug
// tag; elsewhere a Guard is zero-size and its calls are no-ops.
package owner

// Guard is the release-build owner check: a zero-size no-op. Build with
// -tags obsdebug to enforce the single-goroutine contracts at runtime.
type Guard struct{}

func (*Guard) Check(string) {}

func (*Guard) Release() {}
