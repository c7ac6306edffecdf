package comm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/phys"
	"repro/internal/trace"
)

func TestSendRecvBasic(t *testing.T) {
	_, err := Run(2, Options{}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []byte("hello"))
		case 1:
			if got := string(c.Recv(0, 7)); got != "hello" {
				return fmt.Errorf("got %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvRingNoDeadlock(t *testing.T) {
	const p = 64
	_, err := Run(p, Options{}, func(c *Comm) error {
		payload := []phys.Particle{{ID: uint32(c.Rank())}}
		for step := 0; step < 10; step++ {
			to := (c.Rank() + 1) % p
			from := (c.Rank() - 1 + p) % p
			payload = c.SendrecvParticles(to, payload, from, step)
		}
		// After 10 steps each payload has travelled 10 ranks.
		want := uint32((c.Rank() - 10 + p) % p)
		if payload[0].ID != want {
			return fmt.Errorf("rank %d: payload from %d, want %d", c.Rank(), payload[0].ID, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorAbortsCleanly(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(8, Options{}, func(c *Comm) error {
		if c.Rank() == 3 {
			return boom
		}
		// Everyone else blocks on a receive that will never arrive; the
		// abort must unwind them.
		c.Recv((c.Rank()+1)%8, 0)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestLowestFailingRankReported: when several ranks fail on their own,
// Run returns the lowest rank's failure, whichever came first — as the
// members of a team do, each failing on its equal copy of the team.
// Rank 5 fails at once, rank 1 well after it; the others wait to be
// released.
func TestLowestFailingRankReported(t *testing.T) {
	_, err := Run(8, Options{}, func(c *Comm) error {
		switch c.Rank() {
		case 5:
			return errors.New("rank 5's copy")
		case 1:
			time.Sleep(20 * time.Millisecond)
			return errors.New("rank 1's copy")
		}
		c.Recv((c.Rank()+1)%8, 0)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1: rank 1's copy") {
		t.Fatalf("err = %v, want rank 1's failure", err)
	}
}

func TestPanicIsReported(t *testing.T) {
	_, err := Run(4, Options{}, func(c *Comm) error {
		if c.Rank() == 2 {
			panic("kaboom")
		}
		c.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

// The tree/ level of the broadcast and reduce subtests names the
// collectives' algorithm, the binomial tree. BcastParticles and
// ReduceF64sInPlace are the collectives.
func TestBcastAllAlgorithmsAllRootsAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		for root := 0; root < p; root += 3 {
			p, root := p, root
			t.Run(fmt.Sprintf("tree/p=%d/root=%d", p, root), func(t *testing.T) {
				t.Parallel()
				_, err := Run(p, Options{}, func(c *Comm) error {
					var data []phys.Particle
					if c.Rank() == root {
						data = []phys.Particle{{ID: 1}, {ID: 2}, {ID: 3}, {ID: uint32(root)}}
					}
					got := c.BcastParticles(root, data, nil)
					if len(got) != 4 || got[3].ID != uint32(root) {
						return fmt.Errorf("rank %d got %v", c.Rank(), got)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestReduceAllAlgorithms(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		p := p
		t.Run(fmt.Sprintf("tree/p=%d", p), func(t *testing.T) {
			t.Parallel()
			root := p / 2
			_, err := Run(p, Options{}, func(c *Comm) error {
				vals := []float64{float64(c.Rank()), 1}
				got := c.ReduceF64sInPlace(root, vals)
				if c.Rank() != root {
					if got != nil {
						return fmt.Errorf("non-root got %v", got)
					}
					return nil
				}
				wantSum := float64(p*(p-1)) / 2
				if got[0] != wantSum || got[1] != float64(p) {
					return fmt.Errorf("reduce = %v, want [%g %d]", got, wantSum, p)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllreduceAndBarrier(t *testing.T) {
	_, err := Run(12, Options{}, func(c *Comm) error {
		c.Barrier()
		got := c.AllreduceF64s([]float64{1})
		if got[0] != 12 {
			return fmt.Errorf("allreduce = %v", got)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubRowsAndColumns(t *testing.T) {
	const rows, cols = 3, 4
	_, err := Run(rows*cols, Options{}, func(c *Comm) error {
		row, col := c.Rank()/cols, c.Rank()%cols
		rowRanks := make([]int, cols)
		for j := range rowRanks {
			rowRanks[j] = row*cols + j
		}
		colRanks := make([]int, rows)
		for i := range colRanks {
			colRanks[i] = i*cols + col
		}
		rowComm := c.Sub(rowRanks)
		colComm := c.Sub(colRanks)
		if rowComm.Size() != cols || rowComm.Rank() != col {
			return fmt.Errorf("row comm size %d rank %d", rowComm.Size(), rowComm.Rank())
		}
		if colComm.Size() != rows || colComm.Rank() != row {
			return fmt.Errorf("col comm size %d rank %d", colComm.Size(), colComm.Rank())
		}
		// Sub-communicator collectives work and do not cross-talk.
		sum := rowComm.AllreduceF64s([]float64{float64(col)})
		if sum[0] != float64(cols*(cols-1)/2) {
			return fmt.Errorf("row allreduce = %v", sum)
		}
		sum = colComm.AllreduceF64s([]float64{1})
		if sum[0] != rows {
			return fmt.Errorf("col allreduce = %v", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubCommunicator(t *testing.T) {
	_, err := Run(6, Options{}, func(c *Comm) error {
		if c.Rank()%2 == 0 {
			sub := c.Sub([]int{0, 2, 4})
			if sub.Size() != 3 || sub.Rank() != c.Rank()/2 {
				return fmt.Errorf("sub size %d rank %d", sub.Size(), sub.Rank())
			}
			got := sub.AllreduceF64s([]float64{float64(c.Rank())})
			if got[0] != 6 {
				return fmt.Errorf("sub allreduce = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSubOfSubTranslates: a sub-communicator names its members by parent
// rank, so one made from a sub-communicator translates through the
// parent's group into a list of its own — unlike one made from the
// world, which keeps the caller's list (see Sub) — and the caller may
// reuse its list afterwards.
func TestSubOfSubTranslates(t *testing.T) {
	_, err := Run(8, Options{}, func(c *Comm) error {
		if c.Rank()%2 == 1 {
			return nil
		}
		evens := c.Sub([]int{0, 2, 4, 6})
		if evens.Rank()%2 == 0 {
			return nil
		}
		pick := []int{3, 1} // world ranks 6 and 2, in that order
		pair := evens.Sub(pick)
		pick[0], pick[1] = -1, -1
		if want := 1 - evens.Rank()/2; pair.Size() != 2 || pair.Rank() != want || pair.group[pair.rank] != c.Rank() {
			return fmt.Errorf("world rank %d: pair size %d rank %d world rank %d", c.Rank(), pair.Size(), pair.Rank(), pair.group[pair.rank])
		}
		got := pair.SendrecvParticles(1-pair.Rank(), []phys.Particle{{ID: uint32(c.Rank())}}, 1-pair.Rank(), 7)
		if want := uint32(8 - c.Rank()); len(got) != 1 || got[0].ID != want {
			return fmt.Errorf("world rank %d received %v from its peer, want ID %d", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCountMessages(t *testing.T) {
	rep, err := Run(2, Options{}, func(c *Comm) error {
		c.Stats().SetPhase(trace.Shift)
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 100))
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := rep.CriticalPath[trace.Shift]
	if cp.Messages != 1 || cp.Bytes != 100 {
		t.Errorf("send accounting: %+v", cp)
	}
	if cp.RecvMessages != 1 || cp.RecvBytes != 100 {
		t.Errorf("recv accounting: %+v", cp)
	}
}

// TestF64sCodecRoundTrip: the float64 wire codec of the socket mesh
// (appendF64s, decodeF64sInto) gives back every value bit for bit, NaN
// payloads included, in 8 bytes a value.
func TestF64sCodecRoundTrip(t *testing.T) {
	prop := func(vals []float64) bool {
		b := appendF64s(nil, vals)
		got := decodeF64sInto(make([]float64, 0, len(vals)), b)
		if len(b) != 8*len(vals) || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if got := decodeF64sInto(nil, nil); len(got) != 0 {
		t.Errorf("an empty payload decoded to %v", got)
	}
}

func TestTagMismatchPanics(t *testing.T) {
	_, err := Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte{1})
		} else {
			c.Recv(0, 6) // wrong tag: must panic, reported as error
		}
		return nil
	})
	if err == nil {
		t.Fatal("tag mismatch should fail the run")
	}
}

func TestSelfMessagingPanics(t *testing.T) {
	_, err := Run(1, Options{}, func(c *Comm) error {
		c.Send(0, 0, nil)
		return nil
	})
	if err == nil {
		t.Fatal("self-send should fail")
	}
}
