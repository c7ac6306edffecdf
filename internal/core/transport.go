package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/comm"
	"repro/internal/phys"
)

// xfer is the per-rank transport the timestep loops run on: the
// exchange-buffer shifts, the team's force allreduce, and particle
// migration, abstracted over the payload representation.
//
// Every run uses typedXfer: particle and float64 slices move through
// the mailboxes by reference — zero serialization — while charging the
// exact encoded wire sizes, so the measured S and W communication
// quantities are unchanged. encodedXfer is the original encode/decode
// path, kept as the oracle of the transport property tests, which assert
// the two produce bit-identical final states and identical trace
// reports: it copies every message, so a buffer two ranks wrongly share
// shows as a difference — which the socket twin, copying only what
// crosses processes, cannot show.
//
// A transport belongs to one rank; construct it inside the rank's
// closure.
type xfer interface {
	// loadExchange (re)fills the exchange buffer with a copy of the
	// team's particles, tagging it with the source-team frame fixed at
	// construction.
	loadExchange(team []phys.Particle)
	// view exposes the particles currently in the exchange buffer and
	// the team they originate from (-1 on unframed transports). The
	// slice is read-only: it may alias a buffer that is simultaneously
	// in flight to a neighbor, or that a neighbor holds by now. It is
	// valid until the rank's next move; on a transport built to keep
	// views, until the rank enters allreduceForces (the reuse discipline
	// below), whatever it has moved in between.
	view() (srcTeam int, ps []phys.Particle)
	// shift exchanges the buffer with the ring neighbors: ship to rank
	// `to`, adopt the buffer arriving from rank `from`.
	shift(rc *comm.Comm, to, from, tag int)
	// allreduceForces sums the team's force accumulators over its
	// members (tc) and returns the flattened totals, the same bits on
	// every member. The result is transport-owned and read-only, valid
	// until the next allreduceForces returns.
	allreduceForces(tc *comm.Comm, team []phys.Particle) []float64
	// sendParticles, recvParticles and sendrecvParticles (both at once)
	// move migration payloads between the ranks of a layer. Sent slices
	// transfer ownership; received slices are owned by the caller, which
	// is what lets the migrator send them on in a later step.
	sendParticles(lc *comm.Comm, to, tag int, ps []phys.Particle)
	recvParticles(lc *comm.Comm, from, tag int) []phys.Particle
	sendrecvParticles(lc *comm.Comm, to int, ps []phys.Particle, from, tag int) []phys.Particle
}

// newXfer builds the transport for rank rk. frame is the rank's team
// id when exchange buffers carry a source-team frame (the cutoff
// algorithm), -1 for the unframed all-pairs exchange. keepsViews says
// the rank's pairing reads a view after the rank's next move: it
// selects the exchange-buffer reuse discipline below. A rank whose step
// is only evaluated gets its recorder.
func (rk *rank) newXfer(pr Params, frame int, keepsViews bool) xfer {
	if rk.rec != nil {
		rk.rec.framed = frame >= 0
		return rk.rec
	}
	if pr.oracle {
		return &encodedXfer{frame: frame, keepsViews: keepsViews}
	}
	return &typedXfer{frame: frame, keepsViews: keepsViews}
}

// Exchange-buffer reuse discipline, shared by both transports.
//
// Shifts pass buffers along a chain of custody: every holder reads the
// buffer strictly before forwarding it, so the final holder — the only
// rank that ever writes it again, at the next step's loadExchange — is
// already ordered after every read, and a single retained slot is safe.
// A pairing that reads each view before the rank's next move keeps to
// it: the cutoff loop's windowed, and the all-pairs loop's everyBlock
// when a block fills a sweep batch by itself and is swept the moment it
// arrives (n/T ≥ sweepBatch).
//
// With shorter blocks everyBlock does not read strictly before
// forwarding: it gathers the views of the buffers that visit a rank and
// reads them when it sweeps, at the latest in the flush that ends its
// walk — long after the buffer went on. Such a transport keeps views
// (newXfer), and its load is double-buffered: loadExchange writes the
// buffer held at the end of step k−2, never the one just received. That
// is safe because the all-pairs ring closes. The readers of the buffer a
// rank holds at the end of step k are the T/c ranks of its shift cycle
// (its row, every c-th team), each until its flush of step k; the rank
// writes the buffer at the loadExchange of step k+2. A reader's flush
// precedes its allreduce and so every message it sends in step k+1, whose
// T/c shifts pass a message from each rank of the cycle to the next:
// after them every rank of the cycle has received, directly or through
// the ranks between, from every other, and only then does it go on to
// step k+2 and write. So a kept view is readable until the flush — on
// this ring, and for two steps, no further. The race detector checks
// both regimes mechanically (`make race`): the oracle transport decodes
// every view into memory of its own, so state alone cannot.

// typedXfer is the zero-copy transport: payload slices move through the
// comm mailboxes by reference under the ownership-transfer contract
// (see internal/comm/typed.go), charged at exact wire-format sizes.
type typedXfer struct {
	frame      int
	keepsViews bool

	exchange []phys.Particle // current exchange payload
	exTeam   int             // source team of the exchange payload
	spare    []phys.Particle // double-buffer where views are kept (end of step k−2)
	// forces holds the flattened allreduce payload, which a team
	// partner may read until this rank's allreduce of the next step
	// returns (comm.AllreduceF64s).
	forces comm.Alternating
}

func (x *typedXfer) loadExchange(team []phys.Particle) {
	x.exTeam = x.frame
	// The write target, by the reuse discipline above: the end-of-step
	// buffer itself, or the buffer of step k−2 where views are kept.
	target := x.exchange
	if x.keepsViews {
		target, x.spare = x.spare, x.exchange
	}
	x.exchange = append(target[:0], team...)
}

func (x *typedXfer) view() (int, []phys.Particle) {
	return x.exTeam, x.exchange
}

func (x *typedXfer) shift(rc *comm.Comm, to, from, tag int) {
	if x.frame >= 0 {
		x.exTeam, x.exchange = rc.SendrecvTeamParticles(to, x.exTeam, x.exchange, from, tag)
		return
	}
	x.exchange = rc.SendrecvParticles(to, x.exchange, from, tag)
}

func (x *typedXfer) allreduceForces(tc *comm.Comm, team []phys.Particle) []float64 {
	return tc.AllreduceF64s(flattenForcesInto(x.forces.Next(2 * len(team))[:0], team))
}

func (x *typedXfer) sendParticles(lc *comm.Comm, to, tag int, ps []phys.Particle) {
	lc.SendParticles(to, tag, ps)
}

func (x *typedXfer) recvParticles(lc *comm.Comm, from, tag int) []phys.Particle {
	return lc.RecvParticles(from, tag)
}

func (x *typedXfer) sendrecvParticles(lc *comm.Comm, to int, ps []phys.Particle, from, tag int) []phys.Particle {
	return lc.SendrecvParticles(to, ps, from, tag)
}

// encodedXfer is the original serialize-and-ship transport, retained as
// the test oracle (Params.oracle).
type encodedXfer struct {
	frame      int
	keepsViews bool

	// views holds the decode scratch of the views handed out, nviews of
	// them in use. Where views are kept, one per view since the last
	// allreduceForces: a view stays readable until then, so the next one
	// may not decode over it. Otherwise a view is dead by the next one,
	// and one scratch serves. Retained across steps.
	views    [][]phys.Particle
	nviews   int
	exchange []byte    // current exchange payload
	spare    []byte    // double-buffer where views are kept (end of step k−2)
	forces   []float64 // flattened allreduce payload
}

// decodeInto decodes bytes a peer's encodedXfer produced; failing is a
// bug, like the malformed frame unframeTeam panics on.
func decodeInto(dst []phys.Particle, b []byte) []phys.Particle {
	ps, err := phys.DecodeSliceInto(dst, b)
	if err != nil {
		panic(fmt.Sprintf("core: malformed transport payload: %v", err))
	}
	return ps
}

func (x *encodedXfer) loadExchange(team []phys.Particle) {
	target := x.exchange // as in typedXfer.loadExchange
	if x.keepsViews {
		target, x.spare = x.spare, x.exchange
	}
	target = target[:0]
	if x.frame >= 0 {
		target = appendFrame(target, x.frame)
	}
	x.exchange = phys.AppendSlice(target, team)
}

func (x *encodedXfer) view() (int, []phys.Particle) {
	src, body := -1, x.exchange
	if x.frame >= 0 {
		src, body = unframeTeam(x.exchange)
	}
	if !x.keepsViews {
		x.nviews = 0
	}
	if x.nviews == len(x.views) {
		x.views = append(x.views, nil)
	}
	v := decodeInto(x.views[x.nviews][:0], body)
	x.views[x.nviews] = v
	x.nviews++
	return src, v
}

func (x *encodedXfer) shift(rc *comm.Comm, to, from, tag int) {
	x.exchange = rc.Sendrecv(to, x.exchange, from, tag)
}

func (x *encodedXfer) allreduceForces(tc *comm.Comm, team []phys.Particle) []float64 {
	x.nviews = 0
	x.forces = flattenForcesInto(x.forces[:0], team)
	return tc.AllreduceF64sEncoded(x.forces)
}

func (x *encodedXfer) sendParticles(lc *comm.Comm, to, tag int, ps []phys.Particle) {
	lc.Send(to, tag, phys.EncodeSlice(ps))
}

func (x *encodedXfer) recvParticles(lc *comm.Comm, from, tag int) []phys.Particle {
	return decodeInto(nil, lc.Recv(from, tag))
}

func (x *encodedXfer) sendrecvParticles(lc *comm.Comm, to int, ps []phys.Particle, from, tag int) []phys.Particle {
	return decodeInto(nil, lc.Sendrecv(to, phys.EncodeSlice(ps), from, tag))
}

// appendFrame appends the source-team header of a framed exchange
// payload to dst; the encoded particles follow it.
func appendFrame(dst []byte, team int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(team))
}

func unframeTeam(b []byte) (int, []byte) {
	if len(b) < 4 {
		panic(fmt.Sprintf("core: malformed exchange frame of %d bytes", len(b)))
	}
	return int(binary.LittleEndian.Uint32(b)), b[4:]
}
