package obs

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies a timeline event.
type Kind uint8

const (
	// KindPhase is a closed phase span: Phase identifies the phase,
	// Start/Dur its extent.
	KindPhase Kind = iota
	// KindSend is an instantaneous point-to-point send: Peer, Tag and
	// Bytes describe the message.
	KindSend
	// KindRecv is a completed receive: Start is when the rank began
	// waiting, Dur how long it blocked, Peer/Tag/Bytes the message.
	KindRecv
	// KindBarrier..KindReduce are collective entry/exit spans: Start
	// is entry, Dur the time to exit.
	KindBarrier
	KindBcast
	KindReduce
	// KindWorker is an intra-rank force-pool worker span: Peer holds
	// the worker id within the rank's pool, Start/Dur the tile's busy
	// extent. Stamped by the rank goroutine after the batch drains, so
	// the tracer's single-goroutine contract holds.
	KindWorker
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindPhase:
		return "phase"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindBarrier:
		return "barrier"
	case KindBcast:
		return "bcast"
	case KindReduce:
		return "reduce"
	case KindWorker:
		return "worker"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one fixed-size timeline record. Times are nanoseconds since
// the owning Timeline's epoch, on the monotonic clock, so events of
// different ranks order consistently.
type Event struct {
	Start int64
	Dur   int64
	Kind  Kind
	Phase uint8
	Peer  int32
	Tag   int32
	Bytes int64
	// Seq is the 1-based per-(src,dst) message sequence number of a send
	// or receive, stamped by the comm substrate. A send and the receive
	// that consumed it carry the same Seq, which is what lets the Chrome
	// exporter bind them into a flow arrow. 0 means unsequenced (phase
	// spans, collectives, workers, or events recorded outside the
	// runtime).
	Seq uint64
}

// End returns the event's end time (Start for instants).
func (e Event) End() int64 { return e.Start + e.Dur }

// DefaultCapacity is the per-rank event ring capacity used when none is
// given: 64 Ki events ≈ 2.5 MiB per rank.
const DefaultCapacity = 1 << 16

// Timeline owns one event ring per rank, all sharing an epoch so the
// per-rank tracks align. A Timeline survives across multiple runtime
// executions (the rings keep appending), which is how a Simulation run
// in chunks still yields one continuous trace.
type Timeline struct {
	epoch      time.Time
	tracers    []*Tracer
	phaseNames []string
	phaseHists []*Histogram
	metrics    *Registry
}

// NewTimeline creates a timeline for the given number of ranks with the
// given per-rank ring capacity (<= 0 selects DefaultCapacity).
func NewTimeline(ranks, capacity int) *Timeline {
	if ranks < 0 {
		ranks = 0
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	tl := &Timeline{epoch: time.Now(), tracers: make([]*Tracer, ranks)}
	for r := range tl.tracers {
		tl.tracers[r] = &Tracer{tl: tl, rank: r, buf: make([]Event, capacity)}
	}
	return tl
}

// Ranks returns the number of per-rank tracks.
func (tl *Timeline) Ranks() int {
	if tl == nil {
		return 0
	}
	return len(tl.tracers)
}

// Rank returns rank r's tracer, or nil (the disabled tracer) when tl is
// nil or r is out of range — callers can instrument unconditionally.
func (tl *Timeline) Rank(r int) *Tracer {
	if tl == nil || r < 0 || r >= len(tl.tracers) {
		return nil
	}
	return tl.tracers[r]
}

// SetPhaseNames registers display names for phase ids 0..len(names)-1.
// Must be called before ranks start recording (it also builds the
// per-phase duration histograms when a registry is attached).
func (tl *Timeline) SetPhaseNames(names []string) {
	if tl == nil {
		return
	}
	tl.phaseNames = names
	if tl.metrics != nil {
		tl.phaseHists = make([]*Histogram, len(names))
		for i, n := range names {
			tl.phaseHists[i] = tl.metrics.Histogram("phase." + n + ".span_ns")
		}
	}
}

// SetPhaseNamesIfUnset is SetPhaseNames unless names were already
// registered; the runtime calls it at the start of every execution.
func (tl *Timeline) SetPhaseNamesIfUnset(names []string) {
	if tl == nil || tl.phaseNames != nil {
		return
	}
	tl.SetPhaseNames(names)
}

// AttachMetrics routes per-phase span durations into histograms of the
// given registry (one per phase, named "phase.<name>.span_ns").
func (tl *Timeline) AttachMetrics(reg *Registry) {
	if tl == nil {
		return
	}
	tl.metrics = reg
	if tl.phaseNames != nil {
		tl.SetPhaseNames(tl.phaseNames)
	}
}

// PhaseName returns the display name of a phase id.
func (tl *Timeline) PhaseName(p uint8) string {
	if tl != nil && int(p) < len(tl.phaseNames) {
		return tl.phaseNames[p]
	}
	return fmt.Sprintf("phase%d", p)
}

// Events returns rank r's recorded events in chronological order (the
// ring unrolled). The slice is freshly allocated.
func (tl *Timeline) Events(r int) []Event { return tl.Rank(r).Events() }

// Dropped returns the total number of events lost to ring wraparound
// across all ranks.
func (tl *Timeline) Dropped() int64 {
	if tl == nil {
		return 0
	}
	var d int64
	for _, t := range tl.tracers {
		d += t.Dropped()
	}
	return d
}

// Tracer records one rank's events. Recording belongs to that rank's
// goroutine (the open-phase state is owner-only), but the ring itself is
// guarded by a light mutex so Events/Len/Dropped — and therefore the
// live hub's mid-run /trace export — are safe to call from any
// goroutine while the rank keeps recording. A nil *Tracer is the valid,
// allocation-free disabled tracer (every method nil-checks and
// returns).
type Tracer struct {
	tl        *Timeline
	rank      int
	mu        sync.Mutex // guards buf and n
	buf       []Event
	n         uint64
	openPhase uint8
	openStart int64
	phaseOpen bool
}

// Rank returns the rank this tracer records for.
func (t *Tracer) Rank() int {
	if t == nil {
		return -1
	}
	return t.rank
}

// Epoch returns the instant the timeline's clock counts from (the zero
// time when disabled).
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.tl.epoch
}

// Now returns nanoseconds since the timeline epoch (0 when disabled).
// Use it to capture start times for Recv and Collective.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.tl.epoch))
}

// record appends into the ring, overwriting the oldest event when full.
func (t *Tracer) record(e Event) {
	t.mu.Lock()
	t.buf[t.n%uint64(len(t.buf))] = e
	t.n++
	t.mu.Unlock()
}

// Phase switches the rank's active phase: it closes the currently open
// phase span (emitting a KindPhase event and feeding the per-phase
// histogram) and opens a span for p. Re-entering the open phase is a
// no-op, so tight loops may call it redundantly.
func (t *Tracer) Phase(p uint8) { t.PhaseAt(p, t.Now()) }

// PhaseAt is Phase for a caller that already read the clock: now is
// nanoseconds since Epoch. trace.Stats charges its own phase times from
// the same reading, so the timeline's spans and the report's phase
// times are one measurement, not two taken a preemption apart.
func (t *Tracer) PhaseAt(p uint8, now int64) {
	if t == nil {
		return
	}
	if t.phaseOpen {
		if t.openPhase == p {
			return
		}
		t.closeSpan(now)
	}
	t.openPhase = p
	t.openStart = now
	t.phaseOpen = true
}

func (t *Tracer) closeSpan(now int64) {
	dur := now - t.openStart
	t.record(Event{Start: t.openStart, Dur: dur, Kind: KindPhase, Phase: t.openPhase, Peer: -1})
	if hs := t.tl.phaseHists; int(t.openPhase) < len(hs) {
		hs[t.openPhase].Observe(dur)
	}
	t.phaseOpen = false
}

// Close ends the open phase span, if any. The runtime calls it when a
// rank's SPMD function returns; the tracer can be reused afterwards.
func (t *Tracer) Close() {
	if t == nil || !t.phaseOpen {
		return
	}
	t.closeSpan(t.Now())
}

// Send records an instantaneous point-to-point send event. seq is the
// 1-based per-(src,dst) message sequence number stamped by the comm
// substrate; the matching Recv on the peer carries the same seq, which
// the Chrome exporter turns into a flow arrow. Pass 0 when the message
// has no sequence identity.
func (t *Tracer) Send(peer, tag, bytes int, seq uint64) {
	if t == nil {
		return
	}
	t.record(Event{Start: t.Now(), Kind: KindSend, Phase: t.openPhase, Peer: int32(peer), Tag: int32(tag), Bytes: int64(bytes), Seq: seq})
}

// Recv records a completed receive that began waiting at start (a value
// from Now): the span captures how long the rank blocked for the
// message. seq is the sequence number the received message carried (the
// sender's Send stamped the same value), or 0 when unsequenced.
func (t *Tracer) Recv(start int64, peer, tag, bytes int, seq uint64) {
	if t == nil {
		return
	}
	t.record(Event{Start: start, Dur: t.Now() - start, Kind: KindRecv, Phase: t.openPhase, Peer: int32(peer), Tag: int32(tag), Bytes: int64(bytes), Seq: seq})
}

// Collective records a collective entry/exit span of the given kind
// that was entered at start (a value from Now). bytes is the payload
// size where meaningful, 0 otherwise.
func (t *Tracer) Collective(k Kind, start int64, bytes int) {
	if t == nil {
		return
	}
	t.record(Event{Start: start, Dur: t.Now() - start, Kind: k, Phase: t.openPhase, Peer: -1, Bytes: int64(bytes)})
}

// WorkerSpan records one intra-rank force-pool worker's busy span of
// durNs nanoseconds ending now: worker is the id within the rank's
// pool. Called by the rank goroutine after the pool batch drains (the
// pool measures each worker's busy time; only the owner talks to the
// tracer), so the recorded end time is the batch drain, not the tile's
// own end — tiles of one batch render stacked against a shared edge.
func (t *Tracer) WorkerSpan(worker int, durNs int64) {
	if t == nil {
		return
	}
	now := t.Now()
	t.record(Event{Start: now - durNs, Dur: durNs, Kind: KindWorker, Phase: t.openPhase, Peer: int32(worker)})
}

// Len returns the number of events currently held (≤ capacity). Safe to
// call while the owner records.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < uint64(len(t.buf)) {
		return int(t.n)
	}
	return len(t.buf)
}

// Cap returns the ring capacity (0 when disabled).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten by wraparound. Safe
// to call while the owner records.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n <= uint64(len(t.buf)) {
		return 0
	}
	return int64(t.n - uint64(len(t.buf)))
}

// Events returns the held events in recording order, unrolling the
// ring. The slice is freshly allocated; the tracer keeps recording.
// Safe to call while the owner records, which is how the live hub
// exports a consistent mid-run trace.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cap := uint64(len(t.buf))
	if t.n <= cap {
		return append([]Event(nil), t.buf[:t.n]...)
	}
	head := t.n % cap
	out := make([]Event, 0, cap)
	out = append(out, t.buf[head:]...)
	out = append(out, t.buf[:head]...)
	return out
}
