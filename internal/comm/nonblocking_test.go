package comm

import (
	"fmt"
	"testing"
)

func TestIsendIrecvBasic(t *testing.T) {
	_, err := Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			r := c.Isend(1, 3, []byte("async"))
			r.Wait()
		} else {
			r := c.Irecv(0, 3)
			if got := string(r.Wait()); got != "async" {
				return fmt.Errorf("got %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendBeyondMailboxCapacity(t *testing.T) {
	// Flood far past the mailbox buffer: Isend must not deadlock the
	// sender; the overflow goroutines drain as the receiver consumes.
	const count = mailboxCap * 4
	_, err := Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			reqs := make([]*Request, count)
			for i := 0; i < count; i++ {
				reqs[i] = c.Isend(1, i, []byte{byte(i)})
			}
			for _, r := range reqs {
				r.Wait()
			}
		} else {
			for i := 0; i < count; i++ {
				got := c.Recv(0, i)
				if got[0] != byte(i) {
					return fmt.Errorf("message %d corrupted: %v", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendAbortUnwinds(t *testing.T) {
	_, err := Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			// Fill the mailbox so an Isend goroutine parks, then fail.
			for i := 0; i < mailboxCap+2; i++ {
				c.Isend(1, i, []byte{1})
			}
			return fmt.Errorf("deliberate failure")
		}
		// Rank 1 never receives; the abort must release everything.
		c.Recv(0, 9999)
		return nil
	})
	if err == nil {
		t.Fatal("expected the deliberate failure to surface")
	}
}
