package comm

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/phys"
)

// chaos returns a yield hook that calls runtime.Gosched at a seeded
// quarter of the points it is called at. It is safe for any number of
// goroutines: the decision hashes the seed with a shared call count.
func chaos(seed uint64) func() {
	var calls atomic.Uint64
	return func() {
		z := seed + calls.Add(1)*0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		if (z^(z>>31))&3 == 0 {
			runtime.Gosched()
		}
	}
}

// streamCaps are the Options.MailboxCap values the chaos tests run at:
// a rendezvous, one slot, and the default eight.
var streamCaps = []int{-1, 1, 8}

// TestStreamOrderUnderChaos holds the park/wake protocol of the
// mailboxes to FIFO delivery with the scheduler stirred: every step of
// a put and a get may yield the processor, which widens each window in
// which a lost wake-up would strand a side — the test then hangs instead
// of finishing. First a bare producer/consumer pair, with the producer
// sometimes waiting on a full ring; then a 64-rank SendrecvParticles ring whose
// receivers check each payload's origin and, on the timeline, its
// sequence number; then the same ring with a rank failing mid-stream,
// which every other rank must unwind from.
func TestStreamOrderUnderChaos(t *testing.T) {
	for _, boxCap := range streamCaps {
		for seed := uint64(1); seed <= 3; seed++ {
			// A lost wake-up costs a case its whole time bound; the first
			// one ends the test.
			if !t.Run(fmt.Sprintf("pair/cap=%d/seed=%d", boxCap, seed), func(t *testing.T) {
				streamPairInOrder(t, boxCap, seed)
			}) || !t.Run(fmt.Sprintf("ring/cap=%d/seed=%d", boxCap, seed), func(t *testing.T) {
				ringInOrder(t, boxCap, seed)
			}) || !t.Run(fmt.Sprintf("abort/cap=%d/seed=%d", boxCap, seed), func(t *testing.T) {
				ringAbortUnwinds(t, boxCap, seed)
			}) {
				return
			}
		}
	}
}

// streamPairInOrder passes numbered messages through one stream of a
// bare runtime and requires them back in order, each with its own seq.
func streamPairInOrder(t *testing.T, boxCap int, seed uint64) {
	const n = 2000
	defer leakcheck.Check(t)()
	rt := newRuntime(2, boxCap)
	rt.yield = chaos(seed)
	l := rt.link(0, 1)
	go func() {
		for i := 0; i < n; i++ {
			m := bytesMsg([]byte{byte(i), byte(i >> 8)})
			l.seq++
			m.seq = l.seq
			if !l.s.put(&m, rt.abort) || !l.s.settle(rt.abort) {
				return
			}
		}
	}()
	received := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			var m message
			if !l.s.get(&m) {
				received <- fmt.Errorf("message %d: get reported an abort", i)
				return
			}
			if b := payload[byte](&m); m.seq != uint64(i+1) || len(b) != 2 || int(b[0])|int(b[1])<<8 != i {
				received <- fmt.Errorf("message %d arrived as seq %d, payload % x", i, m.seq, b)
				return
			}
		}
		received <- nil
	}()
	select {
	case err := <-received:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(chaosBound):
		t.Errorf("the pair is still running after %v: a wake-up was lost", chaosBound)
	}
	rt.failLocal(errors.New("test over")) // releases whichever side a failure left parked
}

// chaosBound is how long a chaos case may take: a hundred times what it
// needs on two Ps under the race detector.
const chaosBound = 10 * time.Second

// ringRanks is the rank count of the ring cases: ap-latency's P.
const ringRanks = 64

// ringInOrder shifts a payload naming its origin and step around a
// 64-rank ring. Each receive must bring the block the rank `step+1`
// upstream started with, and the timeline must show every rank's
// receives carrying seq 1, 2, … from its one upstream neighbor.
func ringInOrder(t *testing.T, boxCap int, seed uint64) {
	const p, steps = ringRanks, 40
	defer leakcheck.Check(t)()
	ob := obs.NewObserver(p, 4*steps)
	rt, err := NewRuntime(p, Options{MailboxCap: boxCap, Observe: ob}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.yield = chaos(seed)
	finished := make(chan error, 1)
	go func() {
		_, _, err := rt.Run(func(c *Comm) error {
			r := c.Rank()
			to, from := (r+1)%p, (r+p-1)%p
			// A block is its origin rank and the step it was sent in.
			blk := []phys.Particle{{ID: uint32(r)}, {ID: 0}}
			for step := 0; step < steps; step++ {
				blk = c.SendrecvParticles(to, blk, from, step)
				if want := (r - step - 1 + steps*p) % p; int(blk[0].ID) != want || int(blk[1].ID) != step {
					return fmt.Errorf("rank %d step %d: block of rank %d from step %d, want rank %d", r, step, blk[0].ID, blk[1].ID, want)
				}
				blk = []phys.Particle{blk[0], {ID: uint32(step + 1)}}
			}
			return nil
		})
		finished <- err
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(chaosBound):
		t.Fatalf("the ring is still running after %v: a wake-up was lost", chaosBound)
	}
	for r := 0; r < p; r++ {
		var seq uint64
		for _, ev := range ob.Timeline.Events(r) {
			if ev.Kind != obs.KindRecv {
				continue
			}
			if seq++; ev.Seq != seq || int(ev.Peer) != (r+p-1)%p {
				t.Fatalf("rank %d: receive %d is seq %d from rank %d, want seq %d from %d", r, seq, ev.Seq, ev.Peer, seq, (r+p-1)%p)
			}
		}
		if seq != steps {
			t.Errorf("rank %d: the timeline holds %d receives, want %d", r, seq, steps)
		}
	}
}

// ringAbortUnwinds fails one rank of the ring part-way through: Run must
// return its error promptly, and every other rank must unwind — whether
// parked in the exchange, or still running on what was delivered.
func ringAbortUnwinds(t *testing.T, boxCap int, seed uint64) {
	const p, dies, after = ringRanks, 17, 9
	defer leakcheck.Check(t)()
	rt, err := NewRuntime(p, Options{MailboxCap: boxCap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.yield = chaos(seed)
	finished := make(chan error, 1)
	go func() {
		_, _, err := rt.Run(func(c *Comm) error {
			blk := []phys.Particle{{ID: uint32(c.Rank())}}
			for step := 0; ; step++ {
				if c.Rank() == dies && step == after {
					return fmt.Errorf("injected failure at step %d", step)
				}
				blk = c.SendrecvParticles((c.Rank()+1)%p, blk, (c.Rank()+p-1)%p, step)
			}
		})
		finished <- err
	}()
	select {
	case err := <-finished:
		want := fmt.Sprintf("comm: rank %d: injected failure at step %d", dies, after)
		if err == nil || err.Error() != want {
			t.Fatalf("Run returned %v, want %q", err, want)
		}
	case <-time.After(chaosBound):
		t.Fatalf("Run still blocked %v after a rank failed mid-ring", chaosBound)
	}
}
