package comm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// capacity is the number of messages a send can leave behind without
// waiting for the receiver: Options.MailboxCap in effect, 0 for a
// rendezvous.
func (s *stream) capacity() int {
	if s.rendezvous {
		return 0
	}
	return int(s.room)
}

// The abort path: a receive never looks at the run's abort channel, so a
// failure reaches a blocked receiver only through its own mailbox, which
// failLocal marks aborted and whose receiver it wakes (blocked senders
// still select on rt.abort). These tests hold every blocking primitive
// to the same contract, on every mailbox capacity: the run returns the
// failing rank's error promptly and leaves no goroutine — rank or
// deferred delivery — behind.

// runAborted runs fn on p ranks and requires Run to return an error
// containing want within two seconds, with the goroutine count back at
// its starting value afterwards.
func runAborted(t *testing.T, p int, opts Options, want string, fn func(*Comm) error) {
	t.Helper()
	defer leakcheck.Check(t)()
	finished := make(chan error, 1)
	go func() {
		_, err := Run(p, opts, fn)
		finished <- err
	}()
	select {
	case err := <-finished:
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Run returned %v, want an error containing %q", err, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run still blocked 2 s after a rank failed")
	}
}

// failure is one way for a rank to fail; want is what Run's error must
// then contain for rank r.
type failure struct {
	name string
	fail func() error
	want func(r int) string
}

var failures = []failure{
	{"panic", func() error { panic("injected failure") },
		func(r int) string { return fmt.Sprintf("rank %d panicked: injected failure", r) }},
	{"error", func() error { return errors.New("injected failure") },
		func(r int) string { return fmt.Sprintf("rank %d: injected failure", r) }},
}

// blockedCase parks the survivors of a p-rank run in one blocking
// primitive that cannot complete without rank dies, which takes no part
// and fails instead. survive may return once its primitive completes
// (some ranks of a collective do not depend on the dead one).
type blockedCase struct {
	name    string
	dies    int
	survive func(c *Comm, dies int)
}

const abortRanks = 4

var blockedCases = []blockedCase{
	{"Recv", 1, func(c *Comm, dies int) {
		c.Recv(dies, 0)
	}},
	// The Sendrecv cases exchange with SendrecvParticles.
	{"Sendrecv/recv-half", 1, func(c *Comm, dies int) {
		// The send finds room (or, unbuffered, waits beside the receive);
		// the receive never completes.
		c.SendrecvParticles(dies, make([]phys.Particle, 1), dies, 0)
	}},
	{"Sendrecv/send-half", 1, func(c *Comm, dies int) {
		// Rank 0's receive completes, its send into a mailbox nobody
		// drains does not; the others feed it and park.
		switch c.Rank() {
		case 0:
			for i := 0; i < c.sendLink(dies).s.capacity(); i++ {
				c.Send(dies, 0, []byte{0})
			}
			c.SendrecvParticles(dies, make([]phys.Particle, 1), 2, 0)
		case 2:
			c.SendParticles(0, 0, make([]phys.Particle, 1))
			c.Recv(dies, 0)
		default:
			c.Recv(dies, 0)
		}
	}},
	{"BcastParticles/non-root", 1, func(c *Comm, root int) {
		c.BcastParticles(root, nil, nil)
	}},
	{"ReduceF64sInPlace/parent", abortRanks - 1, func(c *Comm, dies int) {
		// Rank p-1 is a leaf of the reduction tree rooted at 0.
		c.ReduceF64sInPlace(0, make([]float64, 16))
	}},
	{"AllreduceF64s/partner", 1, func(c *Comm, dies int) {
		// Rank 0 waits on rank 1 in the first doubling round, rank 3 in
		// the second; rank 2 on rank 0, which never gets there.
		c.AllreduceF64s(make([]float64, 16))
	}},
	{"Barrier", 1, func(c *Comm, dies int) {
		c.Barrier()
	}},
	{"Send/full-mailbox", 1, func(c *Comm, dies int) {
		for {
			c.Send(dies, 0, []byte{1})
		}
	}},
}

// TestAbortReleasesBlockedRanks: one rank fails — by panic, by error —
// a moment after its peers have parked in a blocking primitive that
// depends on it. The subtests end in /tree, the collectives' algorithm.
func TestAbortReleasesBlockedRanks(t *testing.T) {
	for _, bc := range blockedCases {
		for _, f := range failures {
			for _, boxCap := range []int{-1, 1, 8} {
				t.Run(fmt.Sprintf("%s/%s/cap=%d/tree", bc.name, f.name, boxCap), func(t *testing.T) {
					runAborted(t, abortRanks, Options{MailboxCap: boxCap}, f.want(bc.dies), func(c *Comm) error {
						if c.Rank() == bc.dies {
							// Long enough for the others to park; the contract
							// covers a rank still on its way there just the same.
							time.Sleep(2 * time.Millisecond)
							return f.fail()
						}
						bc.survive(c, bc.dies)
						return nil
					})
				})
			}
		}
	}
}

// TestAbortReachesMailboxCreatedLater: survivors that first address a
// peer after the failure was recorded — their mailbox does not exist
// when failLocal sweeps, or comes into being while it does — must find
// it born aborted.
func TestAbortReachesMailboxCreatedLater(t *testing.T) {
	const p, dies = 4, 1
	for _, f := range failures {
		for _, boxCap := range []int{-1, 1, 8} {
			t.Run(fmt.Sprintf("%s/cap=%d", f.name, boxCap), func(t *testing.T) {
				runAborted(t, p, Options{MailboxCap: boxCap}, f.want(dies), func(c *Comm) error {
					if c.Rank() == dies {
						return f.fail()
					}
					<-c.rt.abort
					// A pair nobody has named yet, between two survivors, and
					// nobody ever sends on it.
					c.Recv((c.Rank()+2)%p, 0)
					return nil
				})
			})
		}
	}
}

// TestAbortTokens drives the abort protocol on a bare runtime's streams:
// a mailbox that exists at the failure and one created after it report
// the abort to a receive — and keep reporting it, with nothing behind —
// while a full mailbox first yields, in order, every message delivered
// before the failure. No goroutine is started for any of it.
func TestAbortTokens(t *testing.T) {
	for _, boxCap := range []int{-1, 1, 8} {
		t.Run(fmt.Sprintf("cap=%d", boxCap), func(t *testing.T) {
			noLeak := leakcheck.Check(t)
			rt := newRuntime(4, boxCap)
			early := rt.link(0, 1).s
			full := rt.link(2, 1).s
			// A rendezvous mailbox holds the one message its sender waits on.
			filled := max(full.capacity(), 1)
			for i := 0; i < filled; i++ {
				m := bytesMsg([]byte{byte(i)})
				if !full.tryPut(&m) {
					t.Fatalf("full mailbox: message %d found no room", i)
				}
			}
			rt.failLocal(errors.New("injected failure"))
			rt.failLocal(errors.New("a later failure")) // aborts nothing more
			late := rt.link(3, 1).s

			for name, s := range map[string]*stream{"early": early, "late": late} {
				var m message
				if s.get(&m) {
					t.Errorf("%s mailbox: got a %v message, want the abort", name, m.kind)
				}
				if s.get(&m) {
					t.Errorf("%s mailbox: a message (%v) behind the abort", name, m.kind)
				}
			}
			for i := 0; i < filled; i++ {
				var m message
				if !full.get(&m) || m.kind != payloadBytes || payload[byte](&m)[0] != byte(i) {
					t.Fatalf("full mailbox: message %d is %v %v, want the payload sent before the failure", i, m.kind, payload[byte](&m))
				}
			}
			var behind message
			if full.get(&behind) {
				t.Errorf("full mailbox: got a %v message behind the payloads, want the abort", behind.kind)
			}

			// A sender parked on a mailbox nobody drains gives up on the
			// run's abort channel.
			m := bytesMsg([]byte{9})
			for full.tryPut(&m) {
			}
			if full.put(&m, rt.abort) {
				t.Error("a put into a full mailbox completed after the failure")
			}
			rt.link(0, 2)
			rt.link(1, 2)
			noLeak()
			if err := rt.err; err == nil || err.Error() != "injected failure" {
				t.Errorf("runtime kept error %v, want the first one", err)
			}
		})
	}
}

// TestWorldRunsAgain: a world serves run after run, and each run starts
// from zero — its report counts its own messages, the per-pair sequence
// numbers the timeline binds sends to receives by restart at 1 — until a
// run fails, after which the world refuses to start another. No run
// leaves a goroutine behind.
func TestWorldRunsAgain(t *testing.T) {
	defer leakcheck.Check(t)()
	ob := obs.NewObserver(2, 0)
	rt, err := NewRuntime(2, Options{Observe: ob}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ping := func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []byte{1})
		} else {
			c.Recv(0, 0)
		}
		return nil
	}
	for run := 0; run < 3; run++ {
		rep, _, err := rt.Run(ping)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got := rep.Sum[trace.Other].Messages; got != 1 {
			t.Errorf("run %d reports %d messages sent, want its own 1", run, got)
		}
	}
	sends := 0
	for _, ev := range ob.Timeline.Events(0) {
		if ev.Kind == obs.KindSend {
			if sends++; ev.Seq != 1 {
				t.Errorf("send %d carries sequence number %d, want every run's first, 1", sends, ev.Seq)
			}
		}
	}
	if sends != 3 {
		t.Errorf("the timeline holds %d sends, want 3", sends)
	}
	if _, _, err := rt.Run(func(*Comm) error { return errors.New("injected failure") }); err == nil {
		t.Fatal("a failing run succeeded")
	}
	if _, _, err := rt.Run(ping); err == nil || !strings.Contains(err.Error(), "unusable after a failed run") {
		t.Errorf("a run after a failure returned %v, want the world refused", err)
	}
}
