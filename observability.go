package nbody

import (
	"io"

	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/record"
	"repro/internal/trace"
)

// Timeline is the per-rank event timeline of an observed run: one ring
// of typed events (phase spans, sends, receives, collectives) per rank,
// exportable as Chrome trace-event JSON (WriteChromeTrace; load in
// Perfetto or chrome://tracing) or JSONL (WriteJSONL).
type Timeline = obs.Timeline

// TimelineEvent is one recorded event; see Simulation.Timeline.
type TimelineEvent = obs.Event

// MetricsSnapshot is a frozen view of an observed run's metrics
// registry: counters, gauges and log₂-bucketed histograms.
type MetricsSnapshot = obs.Snapshot

// CommMatrixSnapshot is a frozen view of the per-(phase, src, dst)
// communication matrix of an observed run: per world-rank pair, the
// messages and payload bytes sent and received under each trace phase.
type CommMatrixSnapshot = obs.MatrixSnapshot

// LiveServer is the embedded HTTP telemetry hub: /metrics (Prometheus
// text), /snapshot.json, /trace (Chrome trace JSON, safe mid-run),
// /matrix.json, /series.json, /series/stream and /debug/pprof. Create
// it with NewLiveHub, Start it, and AttachLive each simulation.
type LiveServer = live.Server

// Recorder is the per-step flight recorder of an observed simulation: a
// bounded ring of one Sample per timestep, queryable mid-run (Window,
// Last), streamable to a JSONL file (StreamTo/CloseStream) and served
// by the live hub as /series.json and /series/stream.
type Recorder = record.Recorder

// RecorderSample is one recorded timestep; see Recorder.
type RecorderSample = record.Sample

// RecorderMeta is the recording header: the configuration the samples
// describe plus the positional phase-name vocabulary.
type RecorderMeta = record.Meta

// ObserveOptions enables per-event observability for a simulation: a
// per-rank event timeline and a metrics registry, both populated by the
// comm substrate and the timestep loops. The overhead with observation
// off (Config.Observe == nil) is a few nil checks per event.
type ObserveOptions struct {
	// TimelineCapacity is the per-rank event ring capacity; older
	// events are overwritten once exceeded (the Timeline reports how
	// many were dropped). 0 selects the default, 64 Ki events per rank.
	TimelineCapacity int
	// RecordCapacity is the flight recorder's sample-ring capacity in
	// steps; the oldest samples fall out of the ring once exceeded
	// (an attached JSONL stream keeps them all). 0 selects the default,
	// 4096 steps.
	RecordCapacity int
}

// observer builds the obs bundle for a configured simulation.
func (c Config) observer() *obs.Observer {
	if c.Observe == nil {
		return nil
	}
	o := obs.NewObserver(c.P, c.Observe.TimelineCapacity)
	o.Timeline.SetPhaseNames(trace.PhaseNames())
	o.EnsureMatrix(len(trace.PhaseNames()), c.P)
	return o
}

// newRecorder builds the flight recorder for a configured simulation,
// with the header describing the resolved run configuration. Nil when
// observation is off — the recorder samples the observer's matrix and
// metrics, so it cannot outlive it.
func (c Config) newRecorder(o *obs.Observer) *record.Recorder {
	if c.Observe == nil || o == nil {
		return nil
	}
	return record.New(record.Meta{
		Algorithm: c.resolveAlgorithm().String(),
		N:         c.N,
		P:         c.P,
		C:         c.C,
		Workers:   c.Workers,
		Dim:       c.Dim,
		Cutoff:    c.Cutoff,
		Phases:    trace.PhaseNames(),
	}, c.Observe.RecordCapacity)
}

// EnableObservation turns on observability for an existing simulation —
// checkpoint restores (Load) construct simulations without passing
// through Config.Observe. Passing nil enables the defaults. Events
// record from the next Run; any previously recorded timeline or
// step series is discarded. The simulation's session is dropped — its
// ranks were wired to the old observer — and the next Run builds one
// from the current particles.
func (s *Simulation) EnableObservation(opts *ObserveOptions) {
	if opts == nil {
		opts = &ObserveOptions{}
	}
	s.cfg.Observe = opts
	s.observer = s.cfg.observer()
	s.recorder = s.cfg.newRecorder(s.observer)
	s.session = nil
}

// Recorder returns the simulation's flight recorder — one structured
// sample per completed timestep — or nil when Config.Observe is unset.
// Attach a JSONL sink with Recorder().StreamTo before Run to persist
// the series; query Window/Last mid-run for the live view.
func (s *Simulation) Recorder() *Recorder { return s.recorder }

// Timeline returns the per-rank event timeline of this simulation, or
// nil when Config.Observe is unset. The timeline spans all Run calls of
// the simulation on a single clock, so chunked runs still export one
// continuous trace.
func (s *Simulation) Timeline() *Timeline {
	if s.observer == nil {
		return nil
	}
	return s.observer.Timeline
}

// MetricsSnapshot freezes and returns the simulation's metrics
// registry: message-size and mailbox-depth distributions, per-step wall
// and compute times, per-phase span durations. Empty when
// Config.Observe is unset.
func (s *Simulation) MetricsSnapshot() MetricsSnapshot {
	if s.observer == nil {
		return MetricsSnapshot{}
	}
	return s.observer.Metrics.Snapshot()
}

// WriteTrace writes the simulation's timeline as Chrome trace-event
// JSON to w — one track (pid) per rank. It is a convenience wrapper
// over Timeline().WriteChromeTrace that errors cleanly when the
// simulation is not observed.
func (s *Simulation) WriteTrace(w io.Writer) error {
	tl := s.Timeline()
	if tl == nil {
		return errNotObserved
	}
	return tl.WriteChromeTrace(w)
}

// WriteMetrics writes the frozen metrics registry as JSON to w.
func (s *Simulation) WriteMetrics(w io.Writer) error {
	if s.observer == nil {
		return errNotObserved
	}
	data, err := s.observer.Metrics.Snapshot().JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// CommMatrix freezes and returns the simulation's communication matrix:
// per (phase, src rank, dst rank), the messages and bytes exchanged so
// far. Safe to call while Run is in flight (the cells are atomics).
// Empty when Config.Observe is unset.
func (s *Simulation) CommMatrix() CommMatrixSnapshot {
	if s.observer == nil {
		return CommMatrixSnapshot{}
	}
	tl := s.observer.Timeline
	return s.observer.Matrix().Snapshot(func(ph int) string { return tl.PhaseName(uint8(ph)) })
}

// NewLiveHub returns a telemetry hub with no observer attached yet —
// the shape long-lived servers want: start it once, then AttachLive
// each simulation in turn (cmd/nbody does this for a run and for each
// configuration of a sweep). Endpoints
// report an empty state until the first attach.
func NewLiveHub() *LiveServer { return live.New(nil) }

// AttachLive points an existing hub (e.g. one shared across the runs of
// a sweep) at this simulation's observer. Errors when the simulation is
// not observed.
func (s *Simulation) AttachLive(srv *LiveServer) error {
	if s.observer == nil {
		return errNotObserved
	}
	srv.Attach(s.observer)
	srv.AttachRecorder(s.recorder)
	return nil
}
