package comm

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// Options configures a run of the runtime. The zero value is the
// default configuration: observation off.
type Options struct {
	// Observe, when non-nil, records every rank's activity into the
	// carried timeline (per-event tracing) and metrics registry. Nil
	// disables observation; the instrumented paths then cost only nil
	// checks.
	Observe *obs.Observer
	// MailboxCap overrides the per-(src,dst) mailbox capacity: 0 means
	// the default (8), negative means a rendezvous — a send returns only
	// once the receiver has taken the message. Tests shrink it to prove
	// point-to-point patterns correct on any bounded-capacity transport.
	MailboxCap int
}

// Comm is one rank's handle on a communicator: a fixed group of world
// ranks with private message traffic. It is analogous to an MPI
// communicator. A Comm value belongs to a single rank and must not be
// shared between goroutines.
type Comm struct {
	rt    *Runtime
	id    uint64
	rank  int   // rank within this communicator
	group []int // world rank of each communicator rank
	opts  Options
	stats *trace.Stats
	tr    *obs.Tracer  // nil = timeline disabled
	cm    *commMetrics // nil = metrics disabled
	// peers caches the rank's streams by communicator rank, filled as
	// peers are first addressed, so the per-message path indexes a
	// private slice and never consults the runtime's shared tables.
	peers []peer
	// sums is AllreduceF64s's storage for the partial sums it lends.
	sums Alternating
}

// peer is one cached pair of streams: out carries this rank's messages
// to the peer, in is this rank's mailbox for the peer. Either stays nil
// until that direction is used, so a one-way pair costs one mailbox.
type peer struct {
	out *link
	in  *stream
}

// peer returns the cache slot of communicator rank r.
func (c *Comm) peer(r int) *peer {
	if c.peers == nil {
		c.peers = make([]peer, len(c.group))
	}
	return &c.peers[r]
}

// sendLink returns the stream from this rank to communicator rank `to`.
func (c *Comm) sendLink(to int) *link {
	p := c.peer(to)
	if p.out == nil {
		p.out = c.rt.link(c.group[c.rank], c.group[to])
	}
	return p.out
}

// mailbox returns this rank's mailbox for communicator rank `from`.
func (c *Comm) mailbox(from int) *stream {
	p := c.peer(from)
	if p.in == nil {
		p.in = c.rt.link(c.group[from], c.group[c.rank]).s
	}
	return p.in
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Stats returns the rank's accounting record (shared across all
// communicators of the rank).
func (c *Comm) Stats() *trace.Stats { return c.stats }

// Metrics returns the run's metrics registry (nil when the run is not
// observed; a nil registry hands out nil no-op instruments).
func (c *Comm) Metrics() *obs.Registry {
	if c.opts.Observe == nil {
		return nil
	}
	return c.opts.Observe.Metrics
}

// Publish adds the traffic the rank has counted since its last publish
// to the observer's matrix and comm.{sent,recv}.* counters, and charges
// compute to its compute time there. A timestep driver calls it at each
// step's end, the runtime when the rank's function returns. A no-op
// unobserved; a follower process's counts accumulate for its summary.
func (c *Comm) Publish(compute time.Duration) {
	if c.cm != nil {
		c.cm.tally.publish(c.rt.pub, c.group[c.rank], compute)
	}
}

// diag identifies the caller for panic messages: world rank, active
// trace phase, and transport — enough to localize a schedule bug in a
// multi-process run from a single panic line.
func (c *Comm) diag() string {
	return fmt.Sprintf("world rank %d, phase %v, transport %s",
		c.group[c.rank], c.stats.Phase(), c.rt.transportName())
}

// checkPeer panics if peer is not a valid rank of the communicator.
func (c *Comm) checkPeer(peer int) {
	if peer < 0 || peer >= len(c.group) {
		panic(fmt.Sprintf("comm: peer %d outside communicator of size %d (%s)", peer, len(c.group), c.diag()))
	}
}

// Send delivers data to rank `to` of this communicator under tag. Send
// blocks only when the destination mailbox is full.
//
// Buffer hand-off contract: payloads are never copied by the runtime.
// Send transfers ownership of data to the receiver — the sender must not
// write the slice after Send returns (reading a still-referenced copy is
// fine, e.g. a view of a buffer that has moved on). Conversely, the
// slice returned by Recv is owned by the receiver outright and may be
// reused as a scratch or send buffer in later steps. Collectives follow
// the same rule with one refinement: a broadcast payload may be aliased
// by every rank of the communicator until those ranks are known to have
// finished with it, so a root wanting to reuse its broadcast buffer must
// first pass a synchronization point that transitively orders every
// member behind the reuse (AllreduceF64s names the one its payloads
// wait for). This contract is what lets the
// steady-state timestep run with zero allocations in its encode, decode,
// and frame paths.
func (c *Comm) Send(to, tag int, data []byte) {
	m := bytesMsg(data)
	c.sendMsg(to, tag, &m)
}

// sendMsg is the shared delivery path under Send and the typed sends:
// it stamps the communicator id, tag and sequence number into *m,
// delivers a copy into the destination mailbox, and charges m.wire()
// bytes to the sender's active phase and the obs instruments.
//
// What a failed peer costs the survivors — the failure-latency contract
// of every operation in this package. A send that finds room in the
// mailbox (or the link backlog of a remote destination) completes without
// looking at the runtime's abort channel; only a send that must wait
// parks in a select that also offers it. A receive never looks at the
// abort channel: failLocal marks every local mailbox aborted — those
// created later are born so — and wakes its receiver. A receiver takes
// what is in its mailbox, in order, and unwinds when it finds the
// mailbox empty and aborted. So a survivor blocked in a receive on any
// mailbox, or in a send, unwinds as soon as the failure is recorded. A
// survivor that is running consumes what was delivered to it and
// unwinds at the first receive that finds nothing left: it runs on only
// until it needs a message the failed rank (or a rank stuck behind it)
// never sent, or — if it only sends — until a mailbox nobody drains any
// more is full, at most MailboxCap messages per stream later.
func (c *Comm) sendMsg(to, tag int, m *message) {
	c.checkPeer(to)
	if to == c.rank {
		panic(fmt.Sprintf("comm: self-send (use local copies instead) (%s)", c.diag()))
	}
	src, dst := c.group[c.rank], c.group[to]
	l := c.sendLink(to)
	m.comm = c.id
	m.tag = tag
	l.seq++
	m.seq = l.seq
	wire := m.wire()
	if l.s == nil {
		if c.cm != nil {
			c.cm.countSend(int(c.stats.Phase()), src, dst, wire, c.rt.proc.queueDepthTo(dst))
		}
		c.rt.netSend(src, dst, m)
	} else {
		if c.cm != nil {
			c.cm.countSend(int(c.stats.Phase()), src, dst, wire, l.s.depth())
		}
		if !l.s.put(m, c.rt.abort) || !l.s.settle(c.rt.abort) {
			panic(errAborted{})
		}
	}
	c.stats.CountMessage(wire)
	c.tr.Send(dst, tag, wire, m.seq)
}

// Recv blocks until the next message from rank `from` of this
// communicator arrives and returns its payload. The message must carry
// the expected communicator id and tag — the algorithms in this
// repository are deterministic, so a mismatch indicates a schedule bug
// and panics rather than being silently reordered.
func (c *Comm) Recv(from, tag int) []byte {
	var m message
	c.recvMsg(from, tag, &m)
	return m.bytesPayload(c)
}

// recvMsg blocks for the next message from `from` under tag and takes it
// into *m, charging m.wire() bytes to the receiver's active phase.
func (c *Comm) recvMsg(from, tag int, m *message) {
	c.checkPeer(from)
	if from == c.rank {
		panic(fmt.Sprintf("comm: self-receive (%s)", c.diag()))
	}
	in := c.mailbox(from)
	t0 := c.tr.Now()
	if !in.get(m) {
		panic(errAborted{})
	}
	c.finishRecv(m, from, tag, t0)
}

// finishRecv validates and accounts one message taken from `from`'s
// mailbox; t0 is the tracer timestamp taken when the receive was
// posted.
func (c *Comm) finishRecv(m *message, from, tag int, t0 int64) {
	if m.comm != c.id || m.tag != tag {
		panic(fmt.Sprintf("comm: rank %d expected (comm %x, tag %d) from %d, got (comm %x, tag %d) (%s)",
			c.rank, c.id, tag, from, m.comm, m.tag, c.diag()))
	}
	wire := m.wire()
	c.stats.CountRecv(wire)
	c.tr.Recv(t0, c.group[from], tag, wire, m.seq)
	c.cm.countRecv(int(c.stats.Phase()), c.group[from], c.group[c.rank], wire)
}

// Payload accessors: the algorithms in this repository are
// deterministic, so a receive finding the wrong payload representation
// (bytes where particles were due, say) indicates a schedule bug and
// panics rather than silently converting.

func (m *message) bytesPayload(c *Comm) []byte {
	if m.kind != payloadBytes {
		panic(fmt.Sprintf("comm: expected a byte payload, got %v (tag %d, %s)", m.kind, m.tag, c.diag()))
	}
	return payload[byte](m)
}

func (m *message) particlesPayload(c *Comm) []phys.Particle {
	if m.kind != payloadParticles {
		panic(fmt.Sprintf("comm: expected a particle payload, got %v (tag %d, %s)", m.kind, m.tag, c.diag()))
	}
	return payload[phys.Particle](m)
}

func (m *message) teamParticlesPayload(c *Comm) (int, []phys.Particle) {
	if m.kind != payloadTeamParticles {
		panic(fmt.Sprintf("comm: expected a framed particle payload, got %v (tag %d, %s)", m.kind, m.tag, c.diag()))
	}
	return int(m.hdr), payload[phys.Particle](m)
}

func (m *message) f64sPayload(c *Comm) []float64 {
	if m.kind != payloadF64s {
		panic(fmt.Sprintf("comm: expected a float64 payload, got %v (tag %d, %s)", m.kind, m.tag, c.diag()))
	}
	return payload[float64](m)
}

// sendrecvMsg is the shared exchange under the typed sendrecv calls and
// AllreduceF64s: it sends *m to `to` and takes the message from `from` into
// *m. When neither half can complete at once, the two are offered
// together — both mailboxes' bells in one select — so a ring of ranks
// exchanging at once cannot deadlock on any mailbox capacity, rendezvous
// included. (A blocking send-then-recv only avoids deadlock while the
// mailboxes have room; a shrunken mailbox or a saturated transport
// breaks that assumption, which TestSendrecvRingUnbuffered pins.) The
// exchange starts no goroutine, keeping the steady-state shift loops
// allocation-free.
//
// Progress argument: once this rank's receive completes, its upstream
// neighbor's send has completed, so by induction around any exchange
// cycle every blocked send eventually finds room — each rank keeps its
// receive offered until it completes. On a rendezvous mailbox a send
// puts its message into the one slot at once and only then waits for it
// to be taken, after its own receive.
func (c *Comm) sendrecvMsg(to, tag int, m *message, from int) {
	c.checkPeer(to)
	c.checkPeer(from)
	if to == c.rank {
		panic(fmt.Sprintf("comm: self-send (use local copies instead) (%s)", c.diag()))
	}
	if from == c.rank {
		panic(fmt.Sprintf("comm: self-receive (%s)", c.diag()))
	}
	l := c.sendLink(to)
	if l.s == nil {
		// A remote send cannot join a mailbox cycle — the link's writer
		// goroutine drains the queue and the remote reader never blocks
		// on delivery — so Send's blocking delivery completes, and the
		// receive follows it.
		c.sendMsg(to, tag, m)
		c.recvMsg(from, tag, m)
		return
	}
	src, dst := c.group[c.rank], c.group[to]
	out, in, abort := l.s, c.mailbox(from), c.rt.abort
	m.comm = c.id
	m.tag = tag
	l.seq++
	m.seq = l.seq
	wire := m.wire()
	if c.cm != nil {
		c.cm.countSend(int(c.stats.Phase()), src, dst, wire, out.depth())
	}
	c.stats.CountMessage(wire)
	c.tr.Send(dst, tag, wire, m.seq)
	t0 := c.tr.Now()
	// Fast path: a send that finds room leaves one receive to do. Only a
	// send that would block looks further: it takes a message that is
	// already there, and while neither half can complete the two wait
	// together — with the abort channel, for the send's sake.
	var got message
	sent, received := out.tryPut(m), false
	for !sent && !received {
		if received = in.tryGet(&got); received {
			break
		}
		if !awaitEither(out, in, abort) {
			panic(errAborted{})
		}
		sent = out.tryPut(m)
	}
	if !received && !in.get(&got) {
		panic(errAborted{})
	}
	c.finishRecv(&got, from, tag, t0)
	if !sent && !out.put(m, abort) || !out.settle(abort) {
		panic(errAborted{})
	}
	*m = got
}

// Barrier blocks until every rank of the communicator has entered it.
// Implemented as a reduction to rank 0 followed by a broadcast.
func (c *Comm) Barrier() {
	const tag = tagBarrier
	if c.Size() == 1 {
		return
	}
	t0 := c.tr.Now()
	c.fanInCombine(0, tag, nil, func(acc, _ []byte) []byte { return acc })
	c.fanOut(0, tag, nil)
	c.tr.Collective(obs.KindBarrier, t0, 0)
}

// Sub returns the caller's handle on a communicator containing exactly
// the given parent ranks, in the given order. Every listed rank must call
// Sub with the same list; callers not in the list must not call it. No
// communication is needed because the membership is explicit.
//
// On the world communicator a parent rank is a world rank, so the new
// communicator keeps parentRanks itself as its group instead of a copy:
// the caller must not write the list afterwards, and may hand the same
// one to every member (a grid's row and team lists are built once per
// run, not once per rank). A sub-communicator of a sub-communicator
// translates into a list of its own.
func (c *Comm) Sub(parentRanks []int) *Comm {
	world := c.id == worldID
	group := parentRanks
	if !world {
		group = make([]int, len(parentRanks))
	}
	newRank := -1
	h := c.id
	for i, pr := range parentRanks {
		c.checkPeer(pr)
		if !world {
			group[i] = c.group[pr]
		}
		if pr == c.rank {
			newRank = i
		}
		h = deriveID(h, pr)
	}
	if newRank == -1 {
		panic("comm: Sub called by rank outside the sub-group")
	}
	return &Comm{rt: c.rt, id: h, rank: newRank, group: group, opts: c.opts, stats: c.stats, tr: c.tr, cm: c.cm}
}

// Tags used by the built-in collectives; user code must use tags >= 0.
const (
	tagBarrier = -1 - iota
	TagBcast
	TagReduce
)
