package comm

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/phys"
)

// TestRunStartupScalesWithRanks pins the O(P) start-up: an empty
// 1024-rank run creates no mailbox, no per-pair table and one shared
// world group, so it stays far below the 1.1 GB the eager P² mailboxes
// took, and — nothing in it depending on the schedule — two runs
// allocate exactly the same number of objects (see quietMallocs for
// how that is measured).
func TestRunStartupScalesWithRanks(t *testing.T) {
	empty := func() {
		if _, err := Run(1024, Options{}, func(*Comm) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	first, bytes := quietMallocs(t, 1024, empty)
	second, _ := quietMallocs(t, 1024, empty)
	t.Logf("empty 1024-rank run: %d bytes, %d objects", bytes, first)
	if bytes >= 16<<20 {
		t.Errorf("an empty 1024-rank run allocated %d bytes, want < 16 MiB", bytes)
	}
	if first != second {
		t.Errorf("two empty 1024-rank runs allocated %d and %d objects, want the same", first, second)
	}
}

// TestMailboxesCreatedOncePerUsedPair: a ring shift uses P directed
// pairs out of P², each named by both of its endpoints at about the
// same moment; exactly P links — and so P mailboxes — may exist
// afterwards.
func TestMailboxesCreatedOncePerUsedPair(t *testing.T) {
	const p = 16
	rt := newRuntime(p, 0)
	links := func() (n int) {
		for d := range rt.inboxes {
			n += len(rt.inboxes[d].from)
		}
		return n
	}
	done := make(chan *link, 2*p)
	for r := 0; r < p; r++ {
		go func(r int) { done <- rt.link(r, (r+1)%p) }(r)   // the sender's miss
		go func(r int) { done <- rt.link((r+p-1)%p, r) }(r) // the receiver's miss
	}
	seen := make(map[*link]bool)
	for i := 0; i < 2*p; i++ {
		seen[<-done] = true
	}
	if len(seen) != p || links() != p {
		t.Errorf("a %d-rank ring created %d distinct links (%d registered), want %d", p, len(seen), links(), p)
	}
}

// TestPanicMidRingAbortsPromptly: the message fast path never looks at
// the abort channel, so a failed peer is noticed only where a rank
// would block. With a rank dying in the middle of a ring exchange every
// survivor must still reach such a point, unwind, and let Run return
// the dead rank's error — promptly, on any mailbox capacity, leaving
// no goroutine behind.
func TestPanicMidRingAbortsPromptly(t *testing.T) {
	const p, dies, after = 8, 3, 5
	for _, boxCap := range []int{-1, 1, 8} {
		t.Run(fmt.Sprintf("cap=%d", boxCap), func(t *testing.T) {
			defer leakcheck.Check(t)()
			finished := make(chan error, 1)
			go func() {
				_, err := Run(p, Options{MailboxCap: boxCap}, func(c *Comm) error {
					payload := []phys.Particle{{ID: uint32(c.Rank())}}
					for step := 0; ; step++ {
						if c.Rank() == dies && step == after {
							panic("injected mid-ring failure")
						}
						payload = c.SendrecvParticles((c.Rank()+1)%p, payload, (c.Rank()+p-1)%p, step)
					}
				})
				finished <- err
			}()
			select {
			case err := <-finished:
				want := fmt.Sprintf("rank %d panicked: injected mid-ring failure", dies)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("Run returned %v, want an error containing %q", err, want)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Run still blocked 2 s after a rank panicked mid-ring")
			}
		})
	}
}

// BenchmarkRingShiftOversubscribed is the hand-off the latency-bound
// timestep is made of, on its own: 64 ranks on 2 Ps pass an 8-particle
// typed block around a ring, so a rank's turn comes through the
// scheduler and a receive that finds nothing parks. One iteration is
// one shift of the whole ring; ns/hop is the wall time per single
// rank-to-rank hand-off (64 per iteration).
func BenchmarkRingShiftOversubscribed(b *testing.B) {
	const p, block = 64, 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(p, Options{}, func(c *Comm) error {
		ps := make([]phys.Particle, block)
		to, from := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		for i := 0; i < b.N; i++ {
			ps = c.SendrecvParticles(to, ps, from, 0)
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p), "ns/hop")
}
