//go:build obsdebug

package comm

import (
	"testing"

	"repro/internal/obs"
)

// TestTallyGuard: a tally is its rank goroutine's alone — counting into
// it or publishing it from any other goroutine panics under obsdebug —
// until reset hands it to the next run's goroutine.
func TestTallyGuard(t *testing.T) {
	pub := newPublisher(obs.NewObserver(2, 0), 2)
	var tl tally
	tl.send(0, 0, 1, 8) // binds this goroutine as the owner
	tl.recv(0, 1, 0, 8)
	tl.publish(pub, 0, 0)
	for name, use := range map[string]func(){
		"send":             func() { tl.send(0, 0, 1, 8) },
		"recv":             func() { tl.recv(0, 1, 0, 8) },
		"publish":          func() { tl.publish(pub, 0, 0) },
		"follower publish": func() { tl.publish(nil, 0, 0) },
	} {
		if !panicsElsewhere(use) {
			t.Errorf("%s from another goroutine did not panic", name)
		}
	}
	tl.reset()
	if panicsElsewhere(func() { tl.send(0, 0, 1, 8) }) {
		t.Error("after reset, counting from a new goroutine panicked")
	}
}

// panicsElsewhere runs f on a goroutine of its own and reports whether
// it panicked.
func panicsElsewhere(f func()) (panicked bool) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() != nil }()
		f()
	}()
	<-done
	return panicked
}
