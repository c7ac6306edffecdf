package comm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/phys"
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

// TestTypedCollectivesMatchEncoded runs the typed broadcast and
// reduction against their encoded counterparts for every root and
// several sizes: results must be bit-identical and the message/byte
// accounting must agree exactly.
func TestTypedCollectivesMatchEncoded(t *testing.T) {
	for size := 1; size <= 5; size++ {
		for root := 0; root < size; root++ {
			size, root := size, root
			t.Run(fmt.Sprintf("alg=tree/size=%d/root=%d", size, root), func(t *testing.T) {
				t.Parallel()
				ps := testParticles(9, int64(size*10+root))
				vals := make([]float64, 17)
				for i := range vals {
					vals[i] = float64(i) * 1.25
				}

				type out struct {
					ps  []phys.Particle
					red []float64
				}
				results := make([]out, size)
				encRep, err := Run(size, Options{}, func(c *Comm) error {
					var payload []byte
					if c.Rank() == root {
						payload = phys.AppendSlice(nil, ps)
					}
					got, err := phys.DecodeSlice(c.Bcast(root, payload))
					if err != nil {
						return err
					}
					mine := make([]float64, len(vals))
					for i := range mine {
						mine[i] = vals[i] * float64(c.Rank()+1)
					}
					results[c.Rank()] = out{ps: got, red: c.ReduceF64s(root, mine)}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}

				typedResults := make([]out, size)
				typRep, err := Run(size, Options{}, func(c *Comm) error {
					var lead []phys.Particle
					if c.Rank() == root {
						lead = ps
					}
					got := c.BcastParticles(root, lead, nil)
					mine := make([]float64, len(vals))
					for i := range mine {
						mine[i] = vals[i] * float64(c.Rank()+1)
					}
					typedResults[c.Rank()] = out{ps: got, red: c.ReduceF64sInPlace(root, mine)}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}

				for r := 0; r < size; r++ {
					if len(typedResults[r].ps) != len(results[r].ps) {
						t.Fatalf("rank %d: bcast %d particles, encoded %d", r, len(typedResults[r].ps), len(results[r].ps))
					}
					for i := range results[r].ps {
						if typedResults[r].ps[i] != results[r].ps[i] {
							t.Fatalf("rank %d particle %d differs from encoded", r, i)
						}
					}
					if (typedResults[r].red == nil) != (results[r].red == nil) {
						t.Fatalf("rank %d: reduce nil-ness differs", r)
					}
					for i := range results[r].red {
						if typedResults[r].red[i] != results[r].red[i] {
							t.Fatalf("rank %d reduce[%d]: typed %v, encoded %v (must be bit-identical)", r, i, typedResults[r].red[i], results[r].red[i])
						}
					}
				}
				for _, ph := range trace.Phases() {
					e, ty := encRep.Sum[ph], typRep.Sum[ph]
					if e.Messages != ty.Messages || e.Bytes != ty.Bytes ||
						e.RecvMessages != ty.RecvMessages || e.RecvBytes != ty.RecvBytes {
						t.Fatalf("phase %v accounting differs: encoded %+v, typed %+v", ph, e, ty)
					}
				}
			})
		}
	}
}

// TestSendrecvSelfShortCircuits pins the degenerate single-rank ring
// exchange for both transports: the payload comes back untouched (same
// backing array for typed sends) and neither the mailboxes nor the
// accounting are involved.
func TestSendrecvSelfShortCircuits(t *testing.T) {
	_, err := Run(1, Options{}, func(c *Comm) error {
		data := []byte{1, 2, 3}
		if got := c.Sendrecv(0, data, 0, 5); &got[0] != &data[0] {
			return fmt.Errorf("encoded self-sendrecv copied the payload")
		}
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
		c.Bcast(0, []byte{1})
		c.ReduceF64s(0, []float64{1})
		c.BcastParticles(0, testParticles(2, 3), nil)
		c.ReduceF64sInPlace(0, []float64{5})
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

// TestMixedTransportPanics checks the substrate fails loudly when a
// typed receive meets an encoded payload: the schedules are
// deterministic, so a transport mismatch is a bug, not a case to paper
// over.
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
