package comm

// Typed point-to-point operations: the zero-copy transport the timestep
// loops in internal/core run on. Payload slices move through the
// mailboxes by reference — no encode/decode round-trip — while every
// send and receive is charged the byte size of the wire format the
// socket mesh encodes (phys.WireBytes for particles, 8 bytes per
// float64, a 4-byte header for framed payloads). The substrate's byte
// counts are the paper's measured S and W quantities, so the fidelity
// constraint is on accounting, not on actually serializing. The copying
// reference is the socket twin, one rank per process, where every
// message is encoded and decoded; internal/core's transport property
// tests hold the two to the same bits.
//
// Ownership-transfer contract (extending the buffer hand-off rules on
// Send): a typed send transfers ownership of the payload slice to the
// receiver. The sender must not WRITE the slice after the send returns;
// reading a still-referenced slice is fine (the all-pairs loop sweeps
// gathered views of buffers that have moved on — receivers only read
// them as well). The slice returned by a typed receive is owned by the
// receiver outright and may be reused as scratch or a send buffer in
// later steps. A sender wanting to write a previously sent buffer again
// must first pass a synchronization point that transitively orders
// every reader behind the reuse: the timestep loops alternate two
// allreduce payloads, each free again once the next step's allreduce
// has returned (AllreduceF64s), and where a rank reads gathered views
// after their buffer moved on, double-buffer the closed ring's shift
// exchange so the overwrite happens two steps after the hand-off.

import "repro/internal/phys"

// SendParticles delivers ps to rank `to` by reference, charging the
// sender's active phase phys.WireBytes(len(ps)) — the particle wire
// format's exact size. Ownership of ps transfers to the receiver.
func (c *Comm) SendParticles(to, tag int, ps []phys.Particle) {
	m := particlesMsg(ps)
	c.sendMsg(to, tag, &m)
}

// RecvParticles blocks for the next typed particle message from rank
// `from` and returns its payload, owned by the caller.
func (c *Comm) RecvParticles(from, tag int) []phys.Particle {
	var m message
	c.recvMsg(from, tag, &m)
	return m.particlesPayload(c)
}

// SendrecvParticles ships ps to rank `to` and adopts the payload
// arriving from rank `from` under the same tag. The degenerate
// single-rank ring returns ps untouched without involving the mailboxes
// or the accounting. The exchange offers send and receive
// simultaneously, so a ring of ranks shifting at once cannot deadlock on
// a full mailbox or socket queue; it is the primitive behind the skew
// and shift steps of the communication-avoiding algorithms.
func (c *Comm) SendrecvParticles(to int, ps []phys.Particle, from, tag int) []phys.Particle {
	if to == c.rank && from == c.rank {
		return ps
	}
	m := particlesMsg(ps)
	c.sendrecvMsg(to, tag, &m, from)
	return m.particlesPayload(c)
}

// SendrecvTeamParticles is SendrecvParticles for framed payloads: the
// message carries the sending team's id alongside the payload and is
// charged the framed wire size, 4 + phys.WireBytes(len(ps)): the team
// id counts as a uint32 of payload. It is the shift primitive of the
// cutoff algorithm's exchange window.
func (c *Comm) SendrecvTeamParticles(to, team int, ps []phys.Particle, from, tag int) (int, []phys.Particle) {
	if to == c.rank && from == c.rank {
		return team, ps
	}
	m := teamParticlesMsg(team, ps)
	c.sendrecvMsg(to, tag, &m, from)
	return m.teamParticlesPayload(c)
}

// SendF64s delivers vals to rank `to` by reference, charging 8 bytes per
// element — the appendF64s wire size. Ownership transfers.
func (c *Comm) SendF64s(to, tag int, vals []float64) {
	m := f64sMsg(vals)
	c.sendMsg(to, tag, &m)
}
