// Package leakcheck holds tests to the rule that code which starts
// goroutines has ended them when it returns: a Run's ranks, its force
// pools' workers, its deferred deliveries, and the link goroutines of a
// mesh that has been closed.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// deadline is how long a goroutine that was released may take to exit:
// one signals completion a few instructions before it returns, and the
// count only drops once it has.
const deadline = 2 * time.Second

// Check records the number of goroutines and returns the check to call
// once the code under test has returned, successfully or not: it waits
// until the number is back at the recorded one, and fails t, listing
// every goroutine, if it is not within the deadline. Tests that run in
// parallel with others cannot use it — the count is the process's.
func Check(t testing.TB) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		end := time.Now().Add(deadline)
		for runtime.NumGoroutine() > before && time.Now().Before(end) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("%d goroutines before, %d after %v:\n%s", before, n, deadline, buf)
		}
	}
}
