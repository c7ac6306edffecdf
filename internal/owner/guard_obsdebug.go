//go:build obsdebug

package owner

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
)

// Guard is the obsdebug-build owner check: the first Check binds the
// calling goroutine as the owner, and a later Check from a different
// goroutine panics with both ids. Release unbinds the owner, which is
// how ownership hands over — a reused value belongs to the goroutine
// of the run in progress, a new one every run. The check costs a
// runtime.Stack parse per call, which is why it lives behind a build
// tag instead of shipping in the hot path.
type Guard struct {
	owner atomic.Int64 // goroutine id of the owner; 0 = unbound
}

// Check binds or checks the owner; what names the guarded type in the
// panic.
func (g *Guard) Check(what string) {
	id := goroutineID()
	if g.owner.CompareAndSwap(0, id) {
		return
	}
	if own := g.owner.Load(); own != id {
		panic(fmt.Sprintf("%s owned by goroutine %d used from goroutine %d (one goroutine at a time; see its doc)", what, own, id))
	}
}

// Release unbinds the owner, so that the next Check binds whichever
// goroutine makes it.
func (g *Guard) Release() { g.owner.Store(0) }

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine N [running]:"). Debug-only; there is no supported API.
func goroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		panic("owner: unparsable goroutine stack header")
	}
	id, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		panic("owner: unparsable goroutine id: " + err.Error())
	}
	return id
}
