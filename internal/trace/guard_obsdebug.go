//go:build obsdebug

package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
)

// guard is the obsdebug-build owner check. Stats documents "not safe
// for concurrent use; each rank owns exactly one" — this enforces it:
// the first mutating call binds the calling goroutine as the owner, and
// any later mutation from a different goroutine panics with both ids.
// The check costs a runtime.Stack parse per call, which is why it lives
// behind a build tag instead of shipping in the hot path.
type guard struct {
	owner atomic.Int64 // goroutine id of the owner; 0 = unbound
}

func (g *guard) check() {
	id := goroutineID()
	if g.owner.CompareAndSwap(0, id) {
		return
	}
	if own := g.owner.Load(); own != id {
		panic(fmt.Sprintf(
			"trace: Stats owned by goroutine %d mutated from goroutine %d (Stats is not safe for concurrent use)",
			own, id))
	}
}

// release unbinds the owner, so that the next check binds whichever
// goroutine makes it: a reused Stats belongs to the rank goroutine of
// the run in progress, which is a new one every run.
func (g *guard) release() { g.owner.Store(0) }

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine N [running]:"). Debug-only; there is no supported API.
func goroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		panic("trace: unparsable goroutine stack header")
	}
	id, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		panic("trace: unparsable goroutine id: " + err.Error())
	}
	return id
}
