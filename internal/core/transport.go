package core

import (
	"repro/internal/comm"
	"repro/internal/phys"
)

// xfer is the per-rank transport the timestep loops run on: the
// exchange-buffer shifts, the team's force allreduce, and particle
// migration. A run moves its payloads with typedXfer, a plan's
// evaluation records them with the recorder.
//
// typedXfer hands particle and float64 slices through the mailboxes by
// reference — zero serialization — while charging the exact encoded
// wire sizes, so the measured S and W are those of a copying transport.
// The copying reference is the socket twin: the same run with one rank
// per process, where every message crosses a process and is decoded
// into memory of its own, so a buffer two ranks wrongly share shows as
// a difference in the transport property tests (nettransport_test.go).
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
func (rk *rank) newXfer(frame int, keepsViews bool) xfer {
	if rk.rec != nil {
		rk.rec.framed = frame >= 0
		return rk.rec
	}
	return &typedXfer{frame: frame, keepsViews: keepsViews}
}

// Exchange-buffer reuse discipline.
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
// both regimes mechanically (`make race`), and a reuse that comes too
// early shows as a difference from the socket twin, whose views are
// all decoded into memory of their own.

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
	// buffer itself, or the buffer of step k−2 where views are kept. A
	// framed exchange carries a team whose size may drift — a cutoff
	// team's does as particles migrate — so a target it outgrows is
	// replaced with a quarter of headroom; an all-pairs block keeps its
	// size.
	target := x.exchange
	if x.keepsViews {
		target, x.spare = x.spare, x.exchange
	}
	if n := len(team); cap(target) < n {
		if x.frame >= 0 {
			n += n / 4
		}
		target = make([]phys.Particle, 0, n)
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
