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
