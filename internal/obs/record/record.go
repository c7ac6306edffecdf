// Package record is the flight recorder of an observed run: a
// low-overhead per-step sampler that captures one structured Sample per
// timestep — per-phase wall durations, per-phase message/byte counts,
// measured S/W versus the lower bounds, compute and worker imbalance,
// timeline drops, and Go runtime health — into a bounded in-memory ring
// and, optionally, a streamed JSONL file and live SSE subscribers.
//
// Ownership contract (mirroring trace.Stats): within one run, exactly
// one goroutine — rank 0 of the timestep loop — calls RecordCumulative.
// RunBegin/RunEnd bracket a run and hand ownership over (chunked
// Simulation.Run calls record into the same ring from a fresh rank-0
// goroutine each time). Builds with the obsdebug tag enforce the
// contract at runtime. Everything else — Window, Last, Subscribe, the
// live hub's /series.json — reads concurrency-safe state (the ring is
// mutex-guarded, the runtime-health cells are atomics) and never blocks
// the recording goroutine.
//
// The step path is allocation-free: RecordCumulative copies the
// fixed-size Sample into the ring under a mutex and fans it out to
// channels; JSON encoding happens on the stream writer goroutine, and
// runtime.ReadMemStats runs on a background sampler goroutine whose
// latest reading the step path picks up with atomic loads.
//
// Like package obs, record imports nothing from this repository but the
// leaf internal/owner, so any layer may depend on it without cycles;
// phase identities arrive as a positional name list in Meta.
package record

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/owner"
)

// MaxPhases is the fixed per-sample phase-array width. It must be at
// least the number of trace phases (7 today); the slack keeps Sample a
// fixed-size, allocation-free value if the phase vocabulary grows.
const MaxPhases = 16

// DefaultCapacity is the default ring size: one sample per step, so
// 4096 covers any laptop-scale run and bounds memory at a few MiB.
const DefaultCapacity = 4096

// DocKind identifies a recording header line.
const DocKind = "canbody-recording"

// Sample is one timestep's flight-recorder reading. Comm counts and
// phase durations are per-step deltas; S/W, their lower bounds and
// TimelineDropped are cumulative over the observer's life (chunked runs
// included); the imbalances are the histograms' readings so far, and
// runtime health is instantaneous. Per-phase arrays are indexed by
// phase id (Meta.Phases names them) and only the first len(Meta.Phases)
// entries are meaningful.
type Sample struct {
	Step   int64 // recorder-assigned, monotone across chunked runs
	WallNs int64 // this step's wall time on rank 0

	PhaseNs [MaxPhases]int64 // rank 0's wall time per phase this step

	// Global (all-rank) per-phase traffic this step, from the comm
	// matrix's per-rank totals. Per-step attribution is approximate
	// mid-run — rank 0 samples while other ranks may lead or lag by a
	// step — but the deltas telescope, so their sums over a finished
	// recording equal the final matrix totals (and hence the
	// trace.Report sums) bitwise.
	SentMsgs  [MaxPhases]int64
	SentBytes [MaxPhases]int64
	RecvMsgs  [MaxPhases]int64
	RecvBytes [MaxPhases]int64

	// S and W of the traffic counted so far (comm.s.measured and
	// comm.w.measured), by trace.Report's definition: per comm phase,
	// the maximum over ranks of each rank's total, summed. The last
	// sample of a run is taken after every rank has joined and equals
	// the report of one run of all the observer's steps.
	SMeasured int64
	WMeasured int64
	// The Eq. 2/3 bounds scaled to the steps the observer has seen
	// (comm.s.lowerbound and comm.w.lowerbound).
	SLowerBound int64
	WLowerBound int64

	// max/mean over ranks of each rank's compute time so far, the
	// report's ComputeImbalance (trace.Measure), in every sample.
	ComputeImbalance float64
	WorkerImbalance  float64 // max/mean of per-worker busy time (step.worker_compute_ns)
	TimelineDropped  int64   // cumulative timeline ring drops

	HeapBytes  int64 // runtime.MemStats.HeapAlloc (sampled off the hot path)
	GCPauseNs  int64 // runtime.MemStats.PauseTotalNs (process-cumulative)
	NumGC      int64
	Goroutines int64
}

// Meta is the recording header: the configuration key the samples
// describe plus the positional phase-name vocabulary. It is the first
// JSONL line of a streamed recording.
type Meta struct {
	Kind      string   `json:"kind"`
	Version   int      `json:"v"`
	Algorithm string   `json:"algorithm,omitempty"`
	N         int      `json:"n,omitempty"`
	P         int      `json:"p,omitempty"`
	C         int      `json:"c,omitempty"`
	Workers   int      `json:"workers,omitempty"`
	Dim       int      `json:"dim,omitempty"`
	Cutoff    float64  `json:"cutoff,omitempty"`
	Phases    []string `json:"phases"`
}

// Recorder is the bounded sample ring plus its optional sinks. Create
// with New; drive with RunBegin / RecordCumulative / RunEnd.
type Recorder struct {
	meta Meta
	// g holds, in obsdebug builds, the contract that one goroutine per
	// run calls RecordCumulative: the first call binds the owner, and
	// RunBegin/RunEnd release it, which is how ownership hands over
	// between chunked runs (each comm.Run spawns a fresh rank-0
	// goroutine) and to the driver for the held-back final sample.
	g owner.Guard

	mu  sync.Mutex
	buf []Sample
	n   uint64 // samples recorded ever; next Step index

	// Previous cumulative comm totals, for delta conversion. Guarded by
	// mu; persists across runs (the comm matrix accumulates over the
	// simulation's lifetime while phase durations reset per run, which
	// is why comm deltas are the recorder's job and duration deltas the
	// sampler's).
	prevSentMsgs  [MaxPhases]int64
	prevSentBytes [MaxPhases]int64
	prevRecvMsgs  [MaxPhases]int64
	prevRecvBytes [MaxPhases]int64

	// Latest runtime-health reading, stored by the background sampler,
	// loaded (atomically, allocation-free) on the step path.
	heap, gcPause, numGC, goroutines atomic.Int64

	rtMu   sync.Mutex
	rtStop chan struct{}
	rtDone chan struct{}

	stream atomic.Pointer[streamer]

	subMu sync.RWMutex
	subs  map[int]chan Sample
	next  int
}

// New returns a recorder for the given header. capacity <= 0 selects
// DefaultCapacity. Nil-safe methods make a nil *Recorder the valid
// disabled recorder.
func New(meta Meta, capacity int) *Recorder {
	if meta.Kind == "" {
		meta.Kind = DocKind
	}
	if meta.Version == 0 {
		meta.Version = 1
	}
	if len(meta.Phases) > MaxPhases {
		meta.Phases = meta.Phases[:MaxPhases]
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		meta: meta,
		buf:  make([]Sample, 0, capacity),
		subs: make(map[int]chan Sample),
	}
}

// Meta returns the recording header (zero on nil).
func (r *Recorder) Meta() Meta {
	if r == nil {
		return Meta{}
	}
	return r.meta
}

// NumPhases returns the phase-vocabulary width of the recording.
func (r *Recorder) NumPhases() int { return len(r.Meta().Phases) }

// Total returns how many samples were ever recorded (0 on nil).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(r.n)
}

// RingDropped returns how many samples were overwritten out of the ring
// (they remain in any attached stream).
func (r *Recorder) RingDropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(r.n) - int64(len(r.buf))
}

// RecordCumulative records one step. The comm-count arrays of s carry
// CUMULATIVE totals (as read from the matrix); the recorder converts
// them to per-step deltas against its previous reading. Everything else
// is stored as passed. Runtime-health fields are filled in here from
// the background sampler's latest reading. Single recording goroutine
// per run (see the package contract); nil-safe.
func (r *Recorder) RecordCumulative(s Sample) {
	if r == nil {
		return
	}
	r.g.Check("record.Recorder")
	s.HeapBytes = r.heap.Load()
	s.GCPauseNs = r.gcPause.Load()
	s.NumGC = r.numGC.Load()
	s.Goroutines = r.goroutines.Load()

	r.mu.Lock()
	s.Step = int64(r.n)
	r.n++
	for i := 0; i < MaxPhases; i++ {
		cur := s.SentMsgs[i]
		s.SentMsgs[i] = cur - r.prevSentMsgs[i]
		r.prevSentMsgs[i] = cur
		cur = s.SentBytes[i]
		s.SentBytes[i] = cur - r.prevSentBytes[i]
		r.prevSentBytes[i] = cur
		cur = s.RecvMsgs[i]
		s.RecvMsgs[i] = cur - r.prevRecvMsgs[i]
		r.prevRecvMsgs[i] = cur
		cur = s.RecvBytes[i]
		s.RecvBytes[i] = cur - r.prevRecvBytes[i]
		r.prevRecvBytes[i] = cur
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[int(r.n-1)%cap(r.buf)] = s
	}
	r.mu.Unlock()

	// The stream send blocks when the writer falls behind: a recording
	// must be complete to be diffable, so backpressure is the correct
	// tradeoff (the buffer absorbs bursts; sustained slowness means the
	// sink, not the recorder, is the bottleneck). SSE subscribers are a
	// live view — loss is fine — so their sends drop instead.
	if st := r.stream.Load(); st != nil {
		st.ch <- s
	}
	r.subMu.RLock()
	for _, ch := range r.subs {
		select {
		case ch <- s:
		default:
		}
	}
	r.subMu.RUnlock()
}

// Window returns a copy of the samples with Step in [from, to) that are
// still in the ring, in step order. Safe concurrently with recording.
func (r *Recorder) Window(from, to int64) []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int64(r.n)
	lo := n - int64(len(r.buf)) // oldest step still held
	if from < lo {
		from = lo
	}
	if to > n {
		to = n
	}
	if from >= to {
		return nil
	}
	out := make([]Sample, 0, to-from)
	for st := from; st < to; st++ {
		var s Sample
		if len(r.buf) < cap(r.buf) {
			s = r.buf[st]
		} else {
			s = r.buf[int(st)%cap(r.buf)]
		}
		out = append(out, s)
	}
	return out
}

// Last returns the most recent k samples (fewer if the run is younger).
func (r *Recorder) Last(k int) []Sample {
	if r == nil || k <= 0 {
		return nil
	}
	n := r.Total()
	return r.Window(n-int64(k), n)
}

// Subscribe registers a live sample channel of the given buffer size
// (minimum 1) and returns it with a cancel function. Samples that would
// block are dropped for that subscriber — subscriptions are a live
// view, not an archive; use StreamTo for lossless capture.
func (r *Recorder) Subscribe(buf int) (<-chan Sample, func()) {
	if r == nil {
		ch := make(chan Sample)
		close(ch)
		return ch, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Sample, buf)
	r.subMu.Lock()
	id := r.next
	r.next++
	r.subs[id] = ch
	r.subMu.Unlock()
	return ch, func() {
		r.subMu.Lock()
		delete(r.subs, id)
		r.subMu.Unlock()
	}
}

// RunBegin marks the start of one algorithm run: it releases the
// ownership binding (the next RecordCumulative caller becomes the
// owner) and starts the background runtime-health sampler, taking one
// synchronous reading so even a one-step run records real values.
func (r *Recorder) RunBegin() {
	if r == nil {
		return
	}
	r.g.Release()
	r.sampleRuntime()
	r.rtMu.Lock()
	defer r.rtMu.Unlock()
	if r.rtStop != nil {
		return
	}
	r.rtStop = make(chan struct{})
	r.rtDone = make(chan struct{})
	go r.runtimeLoop(r.rtStop, r.rtDone)
}

// RunEnd marks the end of a run: it stops the runtime sampler and, when
// final is non-nil, records it as the run's last sample. The driver
// holds the last step's sample back and completes it here after every
// rank has joined, from the complete comm totals — that residual pickup
// is what makes a finished recording's per-step deltas sum bitwise to
// the end-of-run report traffic. RunEnd runs on the driver goroutine,
// so ownership is released around the final record.
func (r *Recorder) RunEnd(final *Sample) {
	if r == nil {
		return
	}
	r.rtMu.Lock()
	if r.rtStop != nil {
		close(r.rtStop)
		<-r.rtDone
		r.rtStop, r.rtDone = nil, nil
	}
	r.rtMu.Unlock()
	if final != nil {
		r.sampleRuntime()
		r.g.Release()
		r.RecordCumulative(*final)
		r.g.Release()
	}
}

// rtInterval is the runtime-health sampling cadence. ReadMemStats
// briefly stops the world, which is why it runs here, at a fixed slow
// cadence, and never on the step path.
const rtInterval = 100 * time.Millisecond

func (r *Recorder) runtimeLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(rtInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			r.sampleRuntime()
		}
	}
}

func (r *Recorder) sampleRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heap.Store(int64(ms.HeapAlloc))
	r.gcPause.Store(int64(ms.PauseTotalNs))
	r.numGC.Store(int64(ms.NumGC))
	r.goroutines.Store(int64(runtime.NumGoroutine()))
}
