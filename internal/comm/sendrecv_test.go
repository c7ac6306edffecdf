package comm

import (
	"fmt"
	"testing"

	"repro/internal/phys"
)

// TestSendrecvRingUnbuffered pins the Sendrecv deadlock fix: with
// unbuffered mailboxes a blocking send-then-recv ordering deadlocks as
// soon as every rank of a ring calls it at once (each send waits for a
// receiver that is itself stuck sending). The simultaneous-select
// exchange must complete on any mailbox capacity.
func TestSendrecvRingUnbuffered(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			t.Parallel()
			_, err := Run(p, Options{MailboxCap: -1}, func(c *Comm) error {
				payload := []byte{byte(c.Rank())}
				for step := 0; step < 20; step++ {
					to := (c.Rank() + 1) % p
					from := (c.Rank() - 1 + p) % p
					payload = c.Sendrecv(to, payload, from, step)
				}
				want := byte((c.Rank() - 20 + 20*p) % p)
				if payload[0] != want {
					return fmt.Errorf("rank %d: payload from %d, want %d", c.Rank(), payload[0], want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSendrecvPairUnbuffered is the two-rank degenerate ring: both ranks
// send to and receive from each other simultaneously. With capacity
// zero this is the smallest pattern the old ordering deadlocked on.
func TestSendrecvPairUnbuffered(t *testing.T) {
	_, err := Run(2, Options{MailboxCap: -1}, func(c *Comm) error {
		other := 1 - c.Rank()
		for step := 0; step < 50; step++ {
			got := c.Sendrecv(other, []byte{byte(c.Rank()), byte(step)}, other, step)
			if got[0] != byte(other) || got[1] != byte(step) {
				return fmt.Errorf("rank %d step %d: got % x", c.Rank(), step, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendrecvTypedUnbuffered exercises the typed Sendrecv variants over
// unbuffered mailboxes — they share sendrecvMsg and must inherit the
// same progress guarantee.
func TestSendrecvTypedUnbuffered(t *testing.T) {
	const p = 4
	_, err := Run(p, Options{MailboxCap: -1}, func(c *Comm) error {
		to := (c.Rank() + 1) % p
		from := (c.Rank() - 1 + p) % p

		ps := []phys.Particle{{ID: uint32(c.Rank())}}
		ps = c.SendrecvParticles(to, ps, from, 1)
		if len(ps) != 1 || ps[0].ID != uint32(from) {
			return fmt.Errorf("rank %d: particles from %v", c.Rank(), ps)
		}

		team, tp := c.SendrecvTeamParticles(to, c.Rank(), []phys.Particle{{ID: 100 + uint32(c.Rank())}}, from, 2)
		if team != from || len(tp) != 1 || tp[0].ID != 100+uint32(from) {
			return fmt.Errorf("rank %d: team %d particles %v", c.Rank(), team, tp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendrecvAfterIsendOverflowKeepsOrder drives an Isend stream past
// the mailbox capacity and then issues a Sendrecv on the same pair: the
// Sendrecv's outgoing message must queue behind the overflow chain, not
// jump it, so the peer observes one FIFO stream. (The pattern is
// asymmetric — the peer drains — because holding unmatched sends past
// capacity on BOTH sides of a pair is an invalid, deadlocking schedule
// on any bounded transport.)
func TestSendrecvAfterIsendOverflowKeepsOrder(t *testing.T) {
	const burst = 5 // mailbox capacity 1 → four overflow sends
	_, err := Run(2, Options{MailboxCap: 1}, func(c *Comm) error {
		if c.Rank() == 0 {
			reqs := make([]*Request, 0, burst)
			for i := 0; i < burst; i++ {
				reqs = append(reqs, c.Isend(1, 7, []byte{byte(i)}))
			}
			// tailPending is true here, so the exchange takes the
			// chain-preserving path.
			got := c.Sendrecv(1, []byte{burst}, 1, 7)
			if got[0] != 99 {
				return fmt.Errorf("rank 0: sendrecv payload %d, want 99", got[0])
			}
			for _, r := range reqs {
				r.Wait()
			}
			return nil
		}
		// Rank 1 exchanges first, then drains: the stream must read
		// 0,1,...,burst in exactly the order rank 0 issued the sends.
		got := c.Sendrecv(0, []byte{99}, 0, 7)
		if got[0] != 0 {
			return fmt.Errorf("rank 1: sendrecv collected %d, want 0", got[0])
		}
		for i := 1; i <= burst; i++ {
			b := c.Recv(0, 7)
			if b[0] != byte(i) {
				return fmt.Errorf("rank 1: stream message %d carried %d", i, b[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
