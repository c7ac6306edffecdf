//go:build !obsdebug

package trace

// guard is the release-build owner check: a zero-size no-op. Build with
// -tags obsdebug to enforce the "each rank owns exactly one Stats"
// contract at runtime.
type guard struct{}

func (g *guard) check() {}

func (g *guard) release() {}
