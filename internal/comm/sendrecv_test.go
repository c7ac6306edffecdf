package comm

import (
	"fmt"
	"testing"

	"repro/internal/phys"
)

// TestSendrecvRingUnbuffered pins the exchange's deadlock fix: with
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
				payload := []phys.Particle{{ID: uint32(c.Rank())}}
				for step := 0; step < 20; step++ {
					to := (c.Rank() + 1) % p
					from := (c.Rank() - 1 + p) % p
					payload = c.SendrecvParticles(to, payload, from, step)
				}
				want := uint32((c.Rank() - 20 + 20*p) % p)
				if payload[0].ID != want {
					return fmt.Errorf("rank %d: payload from %d, want %d", c.Rank(), payload[0].ID, want)
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
			got := c.SendrecvParticles(other, []phys.Particle{{ID: uint32(c.Rank())}, {ID: uint32(step)}}, other, step)
			if len(got) != 2 || got[0].ID != uint32(other) || got[1].ID != uint32(step) {
				return fmt.Errorf("rank %d step %d: got %v", c.Rank(), step, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendrecvTypedUnbuffered exercises both typed exchanges, plain and
// framed, over unbuffered mailboxes — they share sendrecvMsg and must
// inherit the same progress guarantee.
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
