package comm

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vec"
)

func testParticles(n int, seed int64) []phys.Particle {
	rng := rand.New(rand.NewSource(seed))
	out := make([]phys.Particle, n)
	for i := range out {
		out[i] = phys.Particle{
			ID:    uint32(i),
			Pos:   vec.Vec2{X: rng.Float64(), Y: rng.Float64()},
			Vel:   vec.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()},
			Force: vec.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()},
		}
	}
	return out
}

// TestTypedP2PMatchesEncodedWire checks the heart of the accounting
// contract: a typed particle, framed-particle, or float64 send is
// charged exactly the bytes its encoded wire format would occupy, and
// the payload arrives bit-identical without a codec round-trip. The
// framed payloads cross in one exchange, each way with its own team;
// the float64s cross as the one message of a two-rank reduce tree
// whose root contributes zeros.
func TestTypedP2PMatchesEncodedWire(t *testing.T) {
	const n = 13
	ps := testParticles(n, 1)
	vals := []float64{1.5, -2.25, 3.125}
	rep, err := Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendParticles(1, 1, ps)
			if team, framed := c.SendrecvTeamParticles(1, 7, ps, 1, 2); team != 8 || len(framed) != n {
				return fmt.Errorf("framed payload on rank 0: team %d len %d", team, len(framed))
			}
			f := c.ReduceF64sInPlace(0, make([]float64, len(vals)))
			for i := range f {
				if f[i] != vals[i] {
					return fmt.Errorf("f64 %d: %v != %v", i, f[i], vals[i])
				}
			}
			return nil
		}
		got := c.RecvParticles(0, 1)
		for i := range got {
			if got[i] != ps[i] {
				return fmt.Errorf("particle %d changed in transit: %+v vs %+v", i, got[i], ps[i])
			}
		}
		team, framed := c.SendrecvTeamParticles(0, 8, got, 0, 2)
		if team != 7 || len(framed) != n {
			return fmt.Errorf("framed payload on rank 1: team %d len %d", team, len(framed))
		}
		c.ReduceF64sInPlace(0, append([]float64(nil), vals...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(phys.WireBytes(n) + 2*(4+phys.WireBytes(n)) + 8*len(vals))
	var sent, sentB int64
	for _, ph := range trace.Phases() {
		sent += rep.Sum[ph].Messages
		sentB += rep.Sum[ph].Bytes
	}
	if sent != 4 {
		t.Errorf("typed sends counted %d messages, want 4", sent)
	}
	if sentB != wantBytes {
		t.Errorf("typed sends charged %d bytes, want %d (the encoded wire size)", sentB, wantBytes)
	}
}

// TestTypedCollectivesMatchEncoded holds the typed broadcast and
// reduction to their closed forms for every root and several sizes:
// BcastParticles leaves root's particles on every rank, bit for bit, in
// size−1 messages of their wire size; ReduceF64sInPlace leaves at root
// the serial sum in binomial-tree order — each node adds its children's
// subtree sums to its own contribution, the nearest child first — bit
// for bit, and nil elsewhere, in size−1 messages.
func TestTypedCollectivesMatchEncoded(t *testing.T) {
	for size := 1; size <= 5; size++ {
		for root := 0; root < size; root++ {
			size, root := size, root
			t.Run(fmt.Sprintf("alg=tree/size=%d/root=%d", size, root), func(t *testing.T) {
				t.Parallel()
				ps := testParticles(9, int64(size*10+root))
				contrib := func(r int) []float64 {
					rng := rand.New(rand.NewSource(int64(100*size + r)))
					v := make([]float64, 17)
					for i := range v {
						v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(31)-15))
					}
					return v
				}
				// treeSum is the sum of the subtree at virtual rank vr.
				var treeSum func(vr int) []float64
				treeSum = func(vr int) []float64 {
					acc := contrib((vr + root) % size)
					for k := 0; k < topo.BinomialChildren(vr, size); k++ {
						for i, v := range treeSum(vr + 1<<k) {
							acc[i] += v
						}
					}
					return acc
				}
				want := treeSum(0)

				bcast := make([][]phys.Particle, size)
				reduced := make([][]float64, size)
				rep, err := Run(size, Options{}, func(c *Comm) error {
					var lead []phys.Particle
					if c.Rank() == root {
						lead = ps
					}
					c.Stats().SetPhase(trace.Broadcast)
					bcast[c.Rank()] = c.BcastParticles(root, lead, nil)
					c.Stats().SetPhase(trace.Reduce)
					reduced[c.Rank()] = c.ReduceF64sInPlace(root, contrib(c.Rank()))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < size; r++ {
					if len(bcast[r]) != len(ps) {
						t.Fatalf("rank %d: bcast %d particles, root sent %d", r, len(bcast[r]), len(ps))
					}
					for i := range ps {
						if bcast[r][i] != ps[i] {
							t.Fatalf("rank %d particle %d: %+v, root's %+v", r, i, bcast[r][i], ps[i])
						}
					}
					if r != root {
						if reduced[r] != nil {
							t.Fatalf("rank %d: a non-root reduce returned %v", r, reduced[r])
						}
						continue
					}
					for i := range want {
						if math.Float64bits(reduced[r][i]) != math.Float64bits(want[i]) {
							t.Fatalf("root reduce[%d]: %v, the tree-order sum %v (must be bit-identical)", i, reduced[r][i], want[i])
						}
					}
				}
				msgs := int64(size - 1)
				for _, tc := range []struct {
					name string
					got  trace.PhaseStats
					want int64 // bytes
				}{
					{"bcast", rep.Sum[trace.Broadcast], msgs * int64(phys.WireBytes(len(ps)))},
					{"reduce", rep.Sum[trace.Reduce], msgs * int64(8*len(want))},
				} {
					if g := tc.got; g.Messages != msgs || g.RecvMessages != msgs || g.Bytes != tc.want || g.RecvBytes != tc.want {
						t.Errorf("%s: %+v, want %d messages and %d bytes each way", tc.name, g, msgs, tc.want)
					}
				}
			})
		}
	}
}

// TestSendrecvSelfShortCircuits pins the degenerate single-rank ring
// exchange, plain and framed: the payload comes back untouched (the same
// backing array) and neither the mailboxes nor the accounting are
// involved.
func TestSendrecvSelfShortCircuits(t *testing.T) {
	_, err := Run(1, Options{}, func(c *Comm) error {
		ps := testParticles(4, 2)
		if got := c.SendrecvParticles(0, ps, 0, 6); &got[0] != &ps[0] {
			return fmt.Errorf("typed self-sendrecv copied the payload")
		}
		team, fps := c.SendrecvTeamParticles(0, 3, ps, 0, 7)
		if team != 3 || &fps[0] != &ps[0] {
			return fmt.Errorf("framed self-sendrecv altered the payload (team %d)", team)
		}
		for ph, st := range c.Stats().ByPhase {
			if st.Messages != 0 {
				return fmt.Errorf("self exchanges counted %d messages in phase %d, want 0", st.Messages, ph)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleRankCollectivesStampNoEvents checks that collectives on a
// single-rank communicator — which involve no peers — do not stamp
// zero-peer collective events into an observed timeline.
func TestSingleRankCollectivesStampNoEvents(t *testing.T) {
	o := obs.NewObserver(1, 256)
	_, err := Run(1, Options{Observe: o}, func(c *Comm) error {
		c.BcastParticles(0, testParticles(2, 3), nil)
		c.ReduceF64sInPlace(0, []float64{5})
		c.AllreduceF64s([]float64{5})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range o.Timeline.Events(0) {
		switch ev.Kind {
		case obs.KindBcast, obs.KindReduce:
			t.Errorf("single-rank run stamped a %v event", ev.Kind)
		}
	}
}

// TestAllreduceMatchesReduceRoot holds AllreduceF64s to
// ReduceF64sInPlace's root total, bit for bit on every rank: on
// power-of-two communicators (recursive doubling) and on others (reduce,
// then broadcast the total), buffered and rendezvous. The contributions
// mix signs and magnitudes from 1e-20 to 1e20, so a sum associated any
// other way differs — checked against a right fold of the same values.
// Three calls in a row on caller buffers alternated as the loan asks
// exercise the communicator's own alternating storage, and the traffic
// is log₂ n exchanges a rank, or the tree's 2(n − 1) messages.
func TestAllreduceMatchesReduceRoot(t *testing.T) {
	const n, calls = 64, 3
	contrib := func(call, rank int) []float64 {
		rng := rand.New(rand.NewSource(int64(100*call + rank)))
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
		}
		return v
	}
	for _, size := range []int{2, 3, 4, 8} {
		for _, boxCap := range []int{0, -1} {
			size, boxCap := size, boxCap
			t.Run(fmt.Sprintf("size=%d/cap=%d", size, boxCap), func(t *testing.T) {
				t.Parallel()
				opts := Options{MailboxCap: boxCap}
				want := make([][]float64, calls)
				_, err := Run(size, opts, func(c *Comm) error {
					for call := range want {
						if total := c.ReduceF64sInPlace(0, contrib(call, c.Rank())); c.Rank() == 0 {
							want[call] = total
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if size > 2 {
					differs := false
					for call := range want {
						for i := range want[call] {
							fold := contrib(call, size-1)[i]
							for r := size - 2; r >= 0; r-- {
								fold = contrib(call, r)[i] + fold
							}
							differs = differs || fold != want[call][i]
						}
					}
					if !differs {
						t.Fatal("a right fold sums every element to the tree's bits: the values cannot tell an association")
					}
				}
				got := make([][][]float64, size) // by rank and call
				rep, err := Run(size, opts, func(c *Comm) error {
					var bufs [2][]float64
					for call := 0; call < calls; call++ {
						vals := append(bufs[call%2][:0], contrib(call, c.Rank())...)
						bufs[call%2] = vals
						total := c.AllreduceF64s(vals)
						got[c.Rank()] = append(got[c.Rank()], append([]float64(nil), total...))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for r := range got {
					for call := range want {
						for i := range want[call] {
							if g, w := got[r][call][i], want[call][i]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("rank %d call %d element %d: %v, the reduce's root %v", r, call, i, g, w)
							}
						}
					}
				}
				msgs := int64(2 * (size - 1))
				if size&(size-1) == 0 {
					msgs = int64(size * bits.TrailingZeros(uint(size)))
				}
				var sent int64
				for _, ph := range trace.Phases() {
					sent += rep.Sum[ph].Messages
				}
				if sent != calls*msgs {
					t.Errorf("%d messages in %d calls, want %d a call", sent, calls, msgs)
				}
			})
		}
	}
}

// TestMixedTransportPanics checks the substrate fails loudly when a
// typed receive meets a byte payload: the schedules are deterministic,
// so a payload-kind mismatch is a bug, not a case to paper over.
func TestMixedTransportPanics(t *testing.T) {
	_, err := Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte{1, 2, 3})
			return nil
		}
		c.RecvParticles(0, 1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("err = %v, want payload-kind panic", err)
	}
}
