// Package comm is a hand-rolled message-passing substrate that stands in
// for MPI (Go has no mature MPI bindings). A Runtime executes p ranks as
// goroutines in one SPMD function; ranks exchange byte-slice or typed
// messages through per-pair streams and synchronize with collectives —
// broadcast, reduce, allgather, barrier and the sendrecv shifts the
// communication-avoiding algorithms are built from.
// Sub-communicators are built from explicit member lists (Comm.Sub)
// and need no communication.
//
// A world (Runtime) outlives its runs: Run may be called on it again,
// and what the first run built — mailboxes, communicators, accounting
// records — is there for the next. Building a world costs O(p): a
// pair's mailbox is created the first time one of its endpoints
// addresses the other, exactly once. A mailbox is a single-producer,
// single-consumer ring (stream.go): a message that finds room costs the
// sender one slot write and one atomic store, and the receiver the same,
// with no lock and no channel operation; only a side that must wait parks,
// on a channel of its pair's own. A receiver never consults the run-wide
// abort channel: a failure marks every local mailbox aborted and wakes
// its receiver (see failLocal), which unwinds once it has taken what was
// delivered before. Only an operation blocked on a full mailbox or queue
// — a send, a deferred delivery — selects on the abort channel as well
// (see stream.put and sendMsg).
//
// Broadcast and reduction run down and up one binomial tree
// (topo.BinomialParent), the ⌈log₂ c⌉-stage tree the paper prices them
// by. Every point-to-point message is counted against the sender's
// active trace phase, so the critical-path message and word counts of
// the paper's analysis are measured exactly, not estimated.
package comm

import (
	"fmt"
	"runtime/debug"
	"sync"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// payloadKind tags the representation a message's payload travels in.
// Byte payloads are the encoded wire format; the typed kinds move Go
// slices by reference (zero copy) and are accounted at the byte size the
// wire format would have had, so both transports measure identical S/W.
type payloadKind uint8

const (
	payloadBytes payloadKind = iota
	payloadParticles
	payloadTeamParticles // particles prefixed with a 4-byte source-team frame
	payloadF64s
)

func (k payloadKind) String() string {
	switch k {
	case payloadBytes:
		return "bytes"
	case payloadParticles:
		return "particles"
	case payloadTeamParticles:
		return "team-particles"
	case payloadF64s:
		return "f64s"
	default:
		return fmt.Sprintf("payloadKind(%d)", int(k))
	}
}

// message is what travels between ranks: a kind, a header and one
// payload slice, 56 bytes, copied into and out of a mailbox slot on every
// hop. The comm id separates traffic of different communicators that
// share the underlying mailboxes. The payload is held as the pointer,
// length and capacity of a slice whose element type kind names — bytes,
// particles or float64s — and only the kind-checked accessors below turn
// it back into one.
type message struct {
	comm uint64
	// seq is the 1-based per-(src,dst) world-rank sequence number stamped
	// at send time; the per-pair FIFO mailboxes deliver it in order, so
	// the receiving endpoint observes the same number. The timeline's
	// flow events bind send to recv through it. 0 never occurs on a
	// delivered message.
	seq  uint64
	tag  int
	hdr  uint32 // source-team frame of payloadTeamParticles
	kind payloadKind
	// offWire marks a typed payload this process decoded off a socket:
	// the slice is referenced by nothing but this message, so a receiver
	// that copies out of it and drops it may hand it back for the next
	// decode (see spares in netrun.go). False on every message that
	// travelled by reference.
	offWire bool
	ptr     unsafe.Pointer // the payload's first element; nil for a nil slice
	n, c    int            // the payload's length and capacity
}

// Payload constructors: the kind they set is what the accessors check
// and what wire prices.

func bytesMsg(data []byte) message {
	return withPayload(message{kind: payloadBytes}, data)
}

func particlesMsg(ps []phys.Particle) message {
	return withPayload(message{kind: payloadParticles}, ps)
}

func teamParticlesMsg(team int, ps []phys.Particle) message {
	return withPayload(message{kind: payloadTeamParticles, hdr: uint32(team)}, ps)
}

func f64sMsg(vals []float64) message {
	return withPayload(message{kind: payloadF64s}, vals)
}

// withPayload stores v as m's payload slice.
func withPayload[T any](m message, v []T) message {
	m.ptr, m.n, m.c = unsafe.Pointer(unsafe.SliceData(v)), len(v), cap(v)
	return m
}

// payload returns m's payload slice as a []T, which must be the element
// type m.kind names: a nil slice stays nil, and the capacity comes back
// with it, since a receiver owns the slice and may grow into it.
func payload[T any](m *message) []T {
	if m.ptr == nil {
		return nil
	}
	return unsafe.Slice((*T)(m.ptr), m.c)[:m.n]
}

// wire is the byte size charged to the trace phase and obs instruments:
// for byte payloads their length, for typed payloads the size the
// encoded wire format would occupy — so both transports, and the socket
// path that decodes a frame back into a message, measure identical S/W.
func (m *message) wire() int {
	switch m.kind {
	case payloadParticles:
		return phys.WireBytes(m.n)
	case payloadTeamParticles:
		return frameBytes + phys.WireBytes(m.n)
	case payloadF64s:
		return 8 * m.n
	default:
		return m.n
	}
}

// frameBytes is the wire size of the source-team frame a
// payloadTeamParticles message carries (mirrors appendFrameTeam's header
// in internal/core).
const frameBytes = 4

// mailboxCap is the default per-(src,dst) mailbox capacity. The
// algorithms in this repository keep at most a few outstanding messages
// per pair; a sender blocked on a full mailbox selects on the abort
// channel too, which prevents a hard deadlock if that assumption is
// violated. Options.MailboxCap overrides it: tests use tiny capacities,
// and rendezvous mailboxes, to prove point-to-point patterns correct on
// any bounded-capacity transport.
const mailboxCap = 8

// link is the src→dst message stream of a world: the destination's
// mailbox for this source plus the state of whoever feeds it. A link is
// created the first time either endpoint names the pair and lives as
// long as the world, so a world costs memory for the pairs it uses, not
// for the P² it could. s is immutable after creation and the only field
// the receiver touches (each Comm caches the stream itself, see
// Comm.mailbox); everything else belongs to the feeding goroutine — the
// rank src when it is hosted by this process, the mesh connection's
// reader goroutine otherwise.
type link struct {
	// s is dst's mailbox for src; nil when dst lives in another process
	// (the stream then ends in the mesh, not in a mailbox).
	s *stream
	// seq is the per-pair sequence counter backing message.seq; every
	// run counts from zero.
	seq uint64
	// deferred is closed when the most recent deferred delivery on the
	// stream (a frame that arrived over the socket and found the mailbox
	// full, see inject) has completed; nil when there has been none.
	// Deferred deliveries chain on it, so message order survives past
	// mailbox capacity, and the stream keeps one producer at a time.
	deferred chan struct{}
}

// deferredPending reaps a completed deferred delivery and reports
// whether one is still in flight (in which case inline mailbox delivery
// would reorder the stream).
func (l *link) deferredPending() bool {
	if l.deferred == nil {
		return false
	}
	select {
	case <-l.deferred:
		l.deferred = nil
		return false
	default:
		return true
	}
}

// deferDelivery runs deliver on a goroutine once the stream's previous
// deferred delivery has completed and makes it the stream's last.
// deliver is handed the abort channel of the run it belongs to, and must
// give up when that is closed.
func (rt *Runtime) deferDelivery(l *link, deliver func(abort <-chan struct{})) {
	prev, done, abort := l.deferred, make(chan struct{}), rt.abort
	go func() {
		defer close(done)
		if prev != nil {
			select {
			case <-prev:
			case <-abort:
				return
			}
		}
		deliver(abort)
	}()
	l.deferred = done
}

// inbox indexes the links that end at one destination rank. Its lock
// is taken on the miss path only — a Comm's first message to or from a
// peer — and is what makes link creation exactly-once: both endpoints
// may miss at the same moment, and the loser must find the winner's
// link rather than allocate a second mailbox (besides the wasted
// memory, a race-dependent allocation would make a run's malloc count
// vary, which the steady-state allocation guards forbid).
type inbox struct {
	mu   sync.Mutex
	from map[int]*link
	// aborted is set, under mu, when failLocal has aborted every mailbox
	// in from: a mailbox created later is born aborted.
	aborted bool
}

// Runtime is a world of ranks and what they communicate through: the
// mailboxes of the pairs used so far, every local rank's world
// communicator and accounting record, and in a multi-process world the
// socket side. Run executes one SPMD function on it and may be called
// again once it has returned. What a run builds — mailboxes, the peers
// its communicators cache, sub-communicators the caller keeps, decode
// spares — serves the next one; what a run counts starts from zero each
// time: the per-pair sequence numbers, the Stats, the socket tallies.
// Nothing runs between calls. A failed run leaves the world dead.
type Runtime struct {
	size    int
	boxCap  int
	opts    Options
	inboxes []inbox // by destination world rank
	stats   []*trace.Stats
	worlds  []*Comm // world communicator of each local rank, by rank-lo

	// yield, when non-nil, is handed to every mailbox the world creates
	// (see stream.yield); tests set it before the first Run.
	yield func()

	// Per-run state, made fresh by every Run. err is the run's first
	// failure, and once set the world's verdict: Run refuses to start.
	abort    chan struct{} // closed on the run's first failure
	mu       sync.Mutex
	err      error
	deposits map[int][]phys.Particle // final state published via Comm.Deposit

	// Multi-process state (nil/zero in process). lo/hi bound the world
	// ranks hosted by this process; wire is the socket side of the world
	// (netrun.go), behind a pointer so that an in-process world pays
	// nothing for it.
	proc   *Proc
	lo, hi int
	wire   *wireState
}

// newRuntime prepares a world of size > 0 ranks. Everything it allocates
// is O(size); mailboxes appear as pairs are used (see link).
func newRuntime(size, boxCap int) *Runtime {
	if boxCap == 0 {
		boxCap = mailboxCap
	} else if boxCap < 0 {
		boxCap = 0 // explicit request for rendezvous mailboxes
	}
	rt := &Runtime{
		size:    size,
		boxCap:  boxCap,
		inboxes: make([]inbox, size),
		abort:   make(chan struct{}),
		stats:   make([]*trace.Stats, size),
		hi:      size,
	}
	for r := range rt.stats {
		rt.stats[r] = trace.NewStats()
	}
	return rt
}

// NewRuntime prepares a world of size ranks for Run calls. With a
// non-nil proc the world spans the processes of its mesh and this
// process hosts only its share of the ranks; every process of the mesh
// must make the same calls. When opts.Observe carries a timeline and/or
// metrics registry, every rank's communication is recorded there: phase
// spans and per-message events on the timeline, message-size and
// mailbox-depth distributions in the registry.
func NewRuntime(size int, opts Options, proc *Proc) (*Runtime, error) {
	if size <= 0 {
		return nil, fmt.Errorf("comm: non-positive world size %d", size)
	}
	rt := newRuntime(size, opts.MailboxCap)
	rt.opts = opts
	if proc != nil {
		if err := rt.bindProc(proc); err != nil {
			return nil, err
		}
	}
	var cm *commMetrics
	if o := opts.Observe; o != nil {
		o.Timeline.SetPhaseNamesIfUnset(trace.PhaseNames())
		cm = newCommMetrics(o.Metrics, o.EnsureMatrix(len(trace.PhaseNames()), size))
	}
	group := identity(size)
	rt.worlds = make([]*Comm, rt.hi-rt.lo)
	for r := rt.lo; r < rt.hi; r++ {
		var tr *obs.Tracer
		if o := opts.Observe; o != nil {
			tr = o.Timeline.Rank(r)
		}
		rankCM := cm
		if proc != nil && proc.ID() != 0 {
			// A follower's ranks each count into their own tally, observed
			// or not, so proc 0's merged matrix covers the whole world.
			rankCM = cm.withTally(&rt.wire.tallies[r-rt.lo])
		}
		rt.worlds[r-rt.lo] = &Comm{
			rt:    rt,
			id:    worldID,
			rank:  r,
			group: group,
			opts:  opts,
			stats: rt.stats[r],
			tr:    tr,
			cm:    rankCM,
		}
	}
	return rt, nil
}

// link returns the src→dst stream, creating it on first use.
func (rt *Runtime) link(src, dst int) *link {
	in := &rt.inboxes[dst]
	in.mu.Lock()
	defer in.mu.Unlock()
	l := in.from[src]
	if l == nil {
		if in.from == nil {
			in.from = make(map[int]*link)
		}
		l = &link{}
		if !rt.remote(dst) {
			l.s = newStream(rt.boxCap)
			l.s.yield = rt.yield
			if in.aborted {
				l.s.abort()
			}
		}
		in.from[src] = l
	}
	return l
}

// Report aggregates the per-rank stats into a critical-path report.
func (rt *Runtime) Report() *trace.Report { return trace.Aggregate(rt.stats) }

// fail records the first error, releases every blocked local rank, and
// severs the mesh so remote peers fail fast instead of hanging.
func (rt *Runtime) fail(err error) {
	rt.failLocal(err)
	if rt.proc != nil {
		rt.proc.mesh.Abort(err)
	}
}

// failLocal is fail without the mesh propagation — the form the mesh's
// own abort callback uses, so failure notifications arriving from a
// remote process do not recurse back into the mesh.
//
// The first call releases the local ranks in two ways. Closing rt.abort
// releases whatever is blocked on a full mailbox or queue (senders,
// deferred deliveries, remote sends), which select on it. Receivers do
// not, so every local mailbox, present or future, is marked aborted and
// its receiver woken (stream.abort): a rank blocked in, or arriving at,
// a receive on any mailbox takes the messages delivered before the
// failure in order, finds the mailbox empty and aborted, and unwinds.
func (rt *Runtime) failLocal(err error) {
	if !rt.markFailed(err) {
		return
	}
	close(rt.abort)
	for dst := rt.lo; dst < rt.hi; dst++ {
		in := &rt.inboxes[dst]
		in.mu.Lock()
		in.aborted = true
		for _, l := range in.from {
			l.s.abort()
		}
		in.mu.Unlock()
	}
}

// markFailed records err unless a failure is already recorded, and
// reports whether it was the first.
func (rt *Runtime) markFailed(err error) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err != nil {
		return false
	}
	rt.err = err
	return true
}

// errAborted is the panic payload used to unwind ranks blocked on
// communication when a peer has failed.
type errAborted struct{}

// Run executes fn on every rank of a fresh world concurrently and waits
// for all ranks to finish: RunProc without a mesh.
func Run(size int, opts Options, fn func(*Comm) error) (*trace.Report, error) {
	rep, _, err := RunProc(size, opts, nil, fn)
	return rep, err
}

// RunProc runs fn once on a fresh world: NewRuntime, then Runtime.Run.
// It must be called collectively — every process of the mesh, same size
// and equivalent fn.
func RunProc(size int, opts Options, proc *Proc, fn func(*Comm) error) (*trace.Report, map[int][]phys.Particle, error) {
	rt, err := NewRuntime(size, opts, proc)
	if err != nil {
		return nil, nil, err
	}
	return rt.Run(fn)
}

// Run executes fn on every local rank concurrently, waits for all of
// them to finish and returns the run's report — its own traffic and
// phase times, not the world's so far — and the final state the ranks
// published with Comm.Deposit, merged across the processes of a mesh so
// that every process receives the same. The first error returned (or
// panic raised) by any rank aborts the run: ranks blocked in
// communication unwind cleanly, Run returns that first error, and the
// world is dead from then on — a later Run refuses to start. Every
// goroutine a run starts has ended, or is about to, when it returns.
//
// A run must receive every message it sends: a message left in a
// mailbox would be the next run's to receive. The deposits map is the
// world's, valid until the next Run, and so are the slices in it that
// came off a mesh; the others are the ranks'.
func (rt *Runtime) Run(fn func(*Comm) error) (*trace.Report, map[int][]phys.Particle, error) {
	rt.mu.Lock()
	dead := rt.err
	rt.mu.Unlock()
	if dead != nil {
		return nil, nil, fmt.Errorf("comm: world unusable after a failed run: %w", dead)
	}
	rt.reset()
	if rt.proc != nil {
		if err := rt.attach(); err != nil {
			rt.markFailed(err)
			return nil, nil, err
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(rt.worlds))
	for _, c := range rt.worlds {
		go rt.runRank(&wg, c, fn)
	}
	wg.Wait()
	if rt.proc != nil {
		// Detach before the result exchange, not after: once every local
		// rank has returned, all of this run's inbound traffic has been
		// consumed (each rank completed its deterministic receive
		// schedule), so any frame arriving from here on belongs to the
		// peer's NEXT run — it must wait in the mesh for the next Attach,
		// which may be another world's, not be swallowed by this one. A
		// peer can race ahead like that because the leader finishes the
		// result exchange first and may start its next run immediately.
		rt.detach()
		rep, deps, err := rt.joinDistributed(rt.opts)
		if err != nil {
			rt.markFailed(err)
		}
		return rep, deps, err
	}
	rep := rt.Report()
	if o := rt.opts.Observe; o != nil {
		// Stamp ring-wraparound losses on the report and as a gauge, so a
		// truncated timeline is never silently misread as a complete run.
		dropped := o.Timeline.Dropped()
		rep.TimelineDropped = dropped
		o.Metrics.Gauge("timeline.dropped").Set(dropped)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rep, rt.deposits, rt.err
}

// reset starts a run: a fresh abort channel, the per-pair
// sequence numbers back at zero, no deferred delivery pending (every one
// of the previous run completed before its ranks could return), zero
// counts and no deposits. It runs while nothing else touches the world.
func (rt *Runtime) reset() {
	rt.abort = make(chan struct{})
	for d := range rt.inboxes {
		in := &rt.inboxes[d]
		in.mu.Lock()
		for _, l := range in.from {
			l.seq, l.deferred = 0, nil
		}
		in.mu.Unlock()
	}
	for _, st := range rt.stats {
		st.Reset()
	}
	clear(rt.deposits)
	if rt.wire != nil {
		rt.wire.reset()
	}
}

// runRank is one rank's goroutine of a run.
func (rt *Runtime) runRank(wg *sync.WaitGroup, c *Comm, fn func(*Comm) error) {
	defer wg.Done()
	defer c.tr.Close()
	defer func() {
		switch v := recover().(type) {
		case nil:
		case errAborted:
			// Peer failed first; nothing to report.
		default:
			rt.fail(fmt.Errorf("comm: rank %d panicked: %v\n%s", c.rank, v, debug.Stack()))
		}
	}()
	c.stats.SetTracer(c.tr)
	if err := fn(c); err != nil {
		rt.fail(fmt.Errorf("comm: rank %d: %w", c.rank, err))
	}
}

// commMetrics holds the substrate's pre-resolved registry instruments,
// shared by all ranks (updates are atomic), plus — on a follower process
// of a multi-process run, where every rank has a commMetrics of its own —
// the rank's tally. Resolving once at Run start keeps map lookups out of
// the per-message path. A nil *commMetrics disables all of it at the
// cost of one nil check per site — at the call, for sends, so that an
// unobserved send does not read the mailbox depth it would record.
type commMetrics struct {
	sentMsgs  *obs.Counter
	sentBytes *obs.Counter
	recvMsgs  *obs.Counter
	recvBytes *obs.Counter
	msgBytes  *obs.Histogram // payload size distribution of sends
	mailbox   *obs.Histogram // destination mailbox depth seen by sends
	matrix    *obs.CommMatrix
	tally     *tally // rank-owned; nil except on a follower process
}

func newCommMetrics(reg *obs.Registry, matrix *obs.CommMatrix) *commMetrics {
	if reg == nil && matrix == nil {
		return nil
	}
	return &commMetrics{
		sentMsgs:  reg.Counter("comm.sent.msgs"),
		sentBytes: reg.Counter("comm.sent.bytes"),
		recvMsgs:  reg.Counter("comm.recv.msgs"),
		recvBytes: reg.Counter("comm.recv.bytes"),
		msgBytes:  reg.Histogram("comm.msg.bytes"),
		mailbox:   reg.Histogram("comm.mailbox.depth"),
		matrix:    matrix,
	}
}

// withTally returns one rank's copy of m (nil for an unobserved run)
// that also counts into t.
func (m *commMetrics) withTally(t *tally) *commMetrics {
	var own commMetrics
	if m != nil {
		own = *m
	}
	own.tally = t
	return &own
}

// countSend records one src→dst world-rank message in the rank's tally,
// the registry instruments and the communication matrix, under the
// sender's phase. The caller checks m for nil.
func (m *commMetrics) countSend(phase, src, dst, bytes, boxDepth int) {
	if m.tally != nil {
		c := m.tally.at(phase, src, dst)
		c.SentMsgs++
		c.SentBytes += int64(bytes)
		if m.matrix == nil {
			return // unobserved follower: the tally is all there is
		}
	}
	m.sentMsgs.Inc()
	m.sentBytes.Add(int64(bytes))
	m.msgBytes.Observe(int64(bytes))
	m.mailbox.Observe(int64(boxDepth))
	m.matrix.CountSend(phase, src, dst, bytes)
}

// countRecv records one received src→dst world-rank message the same
// way, under the receiver's phase (which may differ from the phase the
// send was stamped under).
func (m *commMetrics) countRecv(phase, src, dst, bytes int) {
	if m == nil {
		return
	}
	if m.tally != nil {
		c := m.tally.at(phase, src, dst)
		c.RecvMsgs++
		c.RecvBytes += int64(bytes)
		if m.matrix == nil {
			return
		}
	}
	m.recvMsgs.Inc()
	m.recvBytes.Add(int64(bytes))
	m.matrix.CountRecv(phase, src, dst, bytes)
}

func identity(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// worldID is the communicator id of the world communicator.
const worldID uint64 = 0x9e3779b97f4a7c15

// deriveID deterministically derives a sub-communicator id from a parent
// id and a split color, so that all members of a split agree on the new
// id without extra communication.
func deriveID(parent uint64, color int) uint64 {
	z := parent ^ (uint64(color+1) * 0xbf58476d1ce4e5b9)
	z = (z ^ (z >> 30)) * 0x94d049bb133111eb
	z = (z ^ (z >> 27)) * 0x9e3779b97f4a7c15
	return z ^ (z >> 31)
}
