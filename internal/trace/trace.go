// Package trace provides phase-labelled communication and computation
// accounting. Every rank of the message-passing runtime owns a Stats; the
// algorithms label the current phase (broadcast, skew, shift, reduce,
// reassign, compute) and the runtime attributes each message, byte and
// nanosecond to the active phase. Aggregating per-rank Stats yields the
// critical-path quantities S (messages) and W (words) the paper's lower
// bounds speak about, and the per-phase time breakdowns of Figures 2
// and 6.
package trace

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/owner"
)

// Phase labels one part of a timestep. The values mirror the phase
// breakdown in the paper's figures.
type Phase int

const (
	Compute Phase = iota
	Broadcast
	Skew
	Shift
	Reduce
	Reassign
	Other
	numPhases
)

func (p Phase) String() string {
	switch p {
	case Compute:
		return "compute"
	case Broadcast:
		return "broadcast"
	case Skew:
		return "skew"
	case Shift:
		return "shift"
	case Reduce:
		return "reduce"
	case Reassign:
		return "reassign"
	case Other:
		return "other"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Phases lists all phases in display order.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// CommPhases lists the phases that represent communication (everything
// but Compute and Other), in display order.
func CommPhases() []Phase {
	return []Phase{Broadcast, Skew, Shift, Reduce, Reassign}
}

// PhaseStats accumulates the activity attributed to one phase on one
// rank. Sends and receives are tracked separately: the per-rank sum of
// the two bounds the rank's contribution to the critical path, which is
// how the paper's S and W are interpreted for tree collectives (a
// reduction root sends nothing but sits behind log c receives).
type PhaseStats struct {
	Messages     int64         // point-to-point messages sent
	Bytes        int64         // payload bytes sent
	RecvMessages int64         // messages received
	RecvBytes    int64         // payload bytes received
	Time         time.Duration // wall time spent in the phase
}

// Events returns the total number of message events (sends plus
// receives) on the rank in this phase.
func (s PhaseStats) Events() int64 { return s.Messages + s.RecvMessages }

// Volume returns the total traffic (sent plus received bytes) on the
// rank in this phase.
func (s PhaseStats) Volume() int64 { return s.Bytes + s.RecvBytes }

// Add accumulates o into s.
func (s *PhaseStats) Add(o PhaseStats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.RecvMessages += o.RecvMessages
	s.RecvBytes += o.RecvBytes
	s.Time += o.Time
}

// Max keeps the per-field maximum of s and o. Taking the maximum across
// ranks of per-rank totals is how the critical-path S and W are obtained.
func (s *PhaseStats) Max(o PhaseStats) {
	if o.Messages > s.Messages {
		s.Messages = o.Messages
	}
	if o.Bytes > s.Bytes {
		s.Bytes = o.Bytes
	}
	if o.RecvMessages > s.RecvMessages {
		s.RecvMessages = o.RecvMessages
	}
	if o.RecvBytes > s.RecvBytes {
		s.RecvBytes = o.RecvBytes
	}
	if o.Time > s.Time {
		s.Time = o.Time
	}
}

// PhaseTable holds one PhaseStats per phase, indexed by Phase: one
// rank's totals (Stats.ByPhase), or a Report's per-phase sums or maxima
// over ranks.
type PhaseTable [numPhases]PhaseStats

// S returns the message events of the communication phases. Of a
// Report's CriticalPath it is the paper's latency cost S (within a
// factor of two, since each link event is charged to both endpoints);
// of one rank's totals it is that rank's share.
func (t *PhaseTable) S() int64 {
	var s int64
	for _, p := range CommPhases() {
		s += t[p].Events()
	}
	return s
}

// W returns the bytes of the communication phases: of a Report's
// CriticalPath the paper's bandwidth cost W, in bytes rather than words
// (again within a factor of two from double-ended accounting); of one
// rank's totals that rank's share.
func (t *PhaseTable) W() int64 {
	var w int64
	for _, p := range CommPhases() {
		w += t[p].Volume()
	}
	return w
}

// Stats is the per-rank accounting record. It is not safe for concurrent
// use; each rank owns exactly one. Builds with the obsdebug tag enforce
// the single-goroutine contract: the first mutating call binds the
// owning goroutine and any mutation from another goroutine panics.
type Stats struct {
	phase Phase
	// epoch is the instant the phase clock counts from — the attached
	// tracer's timeline epoch, else when the Stats was made — and
	// started the offset at which the active phase began. A phase
	// switch takes one reading, time.Since(epoch), which touches only
	// the monotonic clock (time.Now reads two clocks), and both the
	// phase times here and the tracer's phase spans are charged from it.
	epoch   time.Time
	started time.Duration
	timing  bool
	guard   owner.Guard
	tracer  *obs.Tracer
	ByPhase PhaseTable
	// WorkerCompute accumulates the busy time of each intra-rank force
	// worker (index = worker id within the rank's pool). Stamped by the
	// rank goroutine between pool batches — never by the workers — so
	// the single-goroutine ownership contract holds.
	WorkerCompute []time.Duration
}

// NewStats returns a Stats positioned in the Other phase with timing
// disabled.
func NewStats() *Stats { return &Stats{phase: Other, epoch: time.Now()} }

// SetTracer attaches a per-rank event tracer: subsequent SetPhase calls
// emit timeline span events alongside the aggregate accounting. A nil
// tracer (the default) disables span emission at the cost of a nil
// check.
func (s *Stats) SetTracer(t *obs.Tracer) {
	s.tracer = t
	if t != nil {
		// Move to the timeline's clock, keeping the instant the active
		// phase began.
		e := t.Epoch()
		s.started -= e.Sub(s.epoch)
		s.epoch = e
	}
	s.tracer.Phase(uint8(s.phase))
}

// Reset returns s to the state NewStats leaves it in — phase Other,
// timing off, every count zero — keeping its tracer, its clock and the
// storage of its worker lanes, and releases its owner: the next mutating
// call binds the goroutine it runs on. A reusable runtime resets each
// rank's Stats before a run, so a report counts that run alone.
func (s *Stats) Reset() {
	s.guard.Release()
	s.phase = Other
	s.started, s.timing = 0, false
	s.ByPhase = PhaseTable{}
	s.WorkerCompute = s.WorkerCompute[:0]
}

// Tracer returns the attached event tracer (nil when disabled).
func (s *Stats) Tracer() *obs.Tracer { return s.tracer }

// SetPhase switches the active phase. If wall-clock timing was started
// with StartTiming, the elapsed time since the last switch is charged to
// the outgoing phase. With a tracer attached, the outgoing phase's span
// is emitted to the timeline. Re-entering the active phase is a no-op —
// no clock reading, no span — so loops may call it redundantly.
func (s *Stats) SetPhase(p Phase) {
	s.guard.Check("trace.Stats")
	if p == s.phase {
		return
	}
	if s.timing || s.tracer != nil {
		now := time.Since(s.epoch)
		if s.timing {
			s.ByPhase[s.phase].Time += now - s.started
			s.started = now
		}
		s.tracer.PhaseAt(uint8(p), int64(now))
	}
	s.phase = p
}

// Phase returns the active phase.
func (s *Stats) Phase() Phase { return s.phase }

// StartTiming begins charging wall time to phases.
func (s *Stats) StartTiming() {
	s.guard.Check("trace.Stats")
	s.timing = true
	s.started = time.Since(s.epoch)
}

// StopTiming charges the time since the last phase switch and stops the
// clock.
func (s *Stats) StopTiming() {
	s.guard.Check("trace.Stats")
	if s.timing {
		s.ByPhase[s.phase].Time += time.Since(s.epoch) - s.started
		s.timing = false
	}
}

// AddWorkerCompute charges d of force-pool busy time to intra-rank
// worker w. Must be called by the owning rank goroutine (the pool
// records per-worker times internally; the rank stamps them here after
// each batch or step).
func (s *Stats) AddWorkerCompute(w int, d time.Duration) {
	s.guard.Check("trace.Stats")
	for len(s.WorkerCompute) <= w {
		s.WorkerCompute = append(s.WorkerCompute, 0)
	}
	s.WorkerCompute[w] += d
}

// CountMessage attributes one sent message of n payload bytes to the
// active phase.
func (s *Stats) CountMessage(n int) {
	s.guard.Check("trace.Stats")
	s.ByPhase[s.phase].Messages++
	s.ByPhase[s.phase].Bytes += int64(n)
}

// CountRecv attributes one received message of n payload bytes to the
// active phase.
func (s *Stats) CountRecv(n int) {
	s.guard.Check("trace.Stats")
	s.ByPhase[s.phase].RecvMessages++
	s.ByPhase[s.phase].RecvBytes += int64(n)
}

// Report aggregates the Stats of all ranks in a run.
type Report struct {
	Ranks int
	// CriticalPath holds, per phase, the maximum per-rank totals: the
	// paper's "communication along the critical path".
	CriticalPath PhaseTable
	// Sum holds, per phase, the totals across all ranks.
	Sum PhaseTable
	// Worker-lane aggregates over every rank×worker pair that recorded
	// force-pool busy time: the slowest lane, the total across lanes,
	// and the lane count. Zero lanes when no rank used a pool.
	WorkerMax   time.Duration
	WorkerSum   time.Duration
	WorkerLanes int
	// SLowerBound and WLowerBound are the paper's per-run communication
	// lower bounds for the executed configuration (Eq. 2 for direct
	// interactions, Eq. 3 under a cutoff), in message events and bytes
	// respectively — the same units as S() and W(). Zero when the
	// algorithm driver did not supply bounds; then the footer omits the
	// optimality lines.
	SLowerBound float64
	WLowerBound float64
	// TimelineDropped counts timeline events lost to ring wraparound
	// during the run (0 when unobserved or nothing was dropped). A
	// nonzero value means the exported trace is a truncated suffix.
	TimelineDropped int64
	// KernelImpl names the force-kernel implementation that produced
	// the run's compute times ("avx2", "avx512vl" or "portable",
	// phys.KernelImpl),
	// stamped by the algorithm driver. Results do not depend on it;
	// timings do, so the footer states it. Empty when not stamped.
	KernelImpl string
	// SocketFrames and SocketFlushes are, for a run spanning OS
	// processes, the messages that crossed a socket and the write calls
	// that carried them, summed over the processes; their ratio is the
	// write coalescing the mesh achieved. Zero for an in-process run;
	// then the footer omits the socket line.
	SocketFrames  int64
	SocketFlushes int64
}

// Aggregate builds a Report from per-rank Stats.
func Aggregate(ranks []*Stats) *Report {
	r := &Report{Ranks: len(ranks)}
	for _, s := range ranks {
		r.addRank(&s.ByPhase)
		for _, d := range s.WorkerCompute {
			if d > r.WorkerMax {
				r.WorkerMax = d
			}
			r.WorkerSum += d
			r.WorkerLanes++
		}
	}
	return r
}

// addRank folds one rank's totals into r: Sum adds them, CriticalPath
// keeps the per-field maxima.
func (r *Report) addRank(t *PhaseTable) {
	for i := range t {
		r.Sum[i].Add(t[i])
		r.CriticalPath[i].Max(t[i])
	}
}

// Measure returns the report of what m has counted: each rank's phase
// totals folded in as Aggregate folds the ranks' Stats, so its S, W and
// phase imbalances are a run report's by the same definition. Its times
// are those the driver charged to the matrix's rows (the compute time
// of an observed run); its worker lanes and bounds are zero. The rows
// are atomics, so Measure may run while the ranks count; they
// accumulate over the observer's life, so after chunked runs the result
// is that of one run of all their steps. Nil-safe (an empty report).
func Measure(m *obs.CommMatrix) Report {
	r := Report{Ranks: m.Ranks()}
	for rank := 0; rank < r.Ranks; rank++ {
		t := RankTable(m, rank)
		r.addRank(&t)
	}
	return r
}

// RankTable returns the phase totals m has counted for one rank.
func RankTable(m *obs.CommMatrix, rank int) PhaseTable {
	var t PhaseTable
	for p := range t {
		ps := &t[p]
		ps.Messages, ps.Bytes, ps.RecvMessages, ps.RecvBytes = m.RankTotals(rank, p)
		ps.Time = m.RankTime(rank, p)
	}
	return t
}

// S returns the critical-path message-event count summed over
// communication phases — the paper's latency cost S.
func (r *Report) S() int64 { return r.CriticalPath.S() }

// W returns the critical-path traffic summed over communication phases —
// the paper's bandwidth cost W, in bytes.
func (r *Report) W() int64 { return r.CriticalPath.W() }

// Imbalance returns the load imbalance of a phase: the maximum per-rank
// time divided by the mean per-rank time (1.0 = perfectly balanced). It
// quantifies the boundary effects the paper blames for the cutoff
// algorithm's reduced efficiency. Phases with no recorded time report 1.
func (r *Report) Imbalance(p Phase) float64 {
	if r.Ranks == 0 || r.Sum[p].Time == 0 {
		return 1
	}
	mean := float64(r.Sum[p].Time) / float64(r.Ranks)
	return float64(r.CriticalPath[p].Time) / mean
}

// ComputeImbalance is Imbalance(Compute), the headline balance metric.
func (r *Report) ComputeImbalance() float64 { return r.Imbalance(Compute) }

// WorkerImbalance returns the intra-rank force-pool skew: the busiest
// rank×worker lane divided by the mean lane, over every lane that any
// rank's pool recorded. It is the hierarchical counterpart of
// ComputeImbalance — that figure compares ranks, this one compares the
// workers inside them. 1.0 when balanced or when no pool ran.
func (r *Report) WorkerImbalance() float64 {
	if r.WorkerLanes == 0 || r.WorkerSum == 0 {
		return 1
	}
	mean := float64(r.WorkerSum) / float64(r.WorkerLanes)
	return float64(r.WorkerMax) / mean
}

// String renders the report as an aligned table of per-phase
// critical-path numbers, followed by a labeled footer with the paper's
// headline quantities: the latency cost S, the bandwidth cost W, and
// the compute imbalance.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %13s %10s %13s %12s\n",
		"phase", "sent(max)", "sentB(max)", "recv(max)", "recvB(max)", "time(max)")
	for _, p := range Phases() {
		cp := r.CriticalPath[p]
		if cp.Events() == 0 && cp.Time == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %10d %13d %10d %13d %12s\n",
			p, cp.Messages, cp.Bytes, cp.RecvMessages, cp.RecvBytes, cp.Time)
	}
	fmt.Fprintf(&b, "%-37s %12d\n", "S/W  S (critical-path msg events)", r.S())
	fmt.Fprintf(&b, "%-37s %12d\n", "     W (critical-path bytes)", r.W())
	if r.SLowerBound > 0 {
		fmt.Fprintf(&b, "%-37s %12.1f\n", "     S lower bound (Eq. 2/3)", r.SLowerBound)
		fmt.Fprintf(&b, "%-37s %12.2f\n", "     S / bound (1 = optimal)", float64(r.S())/r.SLowerBound)
	}
	if r.WLowerBound > 0 {
		fmt.Fprintf(&b, "%-37s %12.1f\n", "     W lower bound (bytes)", r.WLowerBound)
		fmt.Fprintf(&b, "%-37s %12.2f\n", "     W / bound (1 = optimal)", float64(r.W())/r.WLowerBound)
	}
	fmt.Fprintf(&b, "%-37s %12.3f\n", "     compute imbalance (max/mean)", r.ComputeImbalance())
	fmt.Fprintf(&b, "%-37s %12.3f\n", "     per-worker imbalance (max/mean)", r.WorkerImbalance())
	if r.KernelImpl != "" {
		fmt.Fprintf(&b, "%-37s %12s\n", "     force kernel", r.KernelImpl)
	}
	if r.SocketFrames > 0 {
		fmt.Fprintf(&b, "     socket  %d frames in %d flushes\n", r.SocketFrames, r.SocketFlushes)
	}
	if r.TimelineDropped > 0 {
		fmt.Fprintf(&b, "WARNING: timeline dropped %d events to ring wraparound; the exported trace is truncated\n", r.TimelineDropped)
	}
	return b.String()
}

// PhaseNames returns phase names in display order; used by table writers
// that want stable column ordering.
func PhaseNames() []string {
	names := make([]string, 0, numPhases)
	for _, p := range Phases() {
		names = append(names, p.String())
	}
	return names
}
