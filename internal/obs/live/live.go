// Package live hosts the embedded HTTP telemetry hub of an observed
// run: Prometheus-style /metrics, a JSON state snapshot, a mid-run
// Chrome trace export, the communication matrix, and the standard
// pprof handlers. The hub holds the observer behind an atomic pointer,
// so a long-lived server (a sweep serving many runs) can re-attach as
// configurations change while scrapes are in flight.
//
// Every endpoint reads only concurrency-safe state: the metrics
// registry and the communication matrix are atomic, and the timeline's
// rings are mutex-guarded, so serving a request never blocks a rank
// nor perturbs the trace.Stats S/W accounting (which stays owned by
// the rank goroutines and is never touched here).
package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/record"
	"repro/internal/trace"
)

// Server is the telemetry hub. Construct with New, then either mount
// Handler on an existing server or call Start to listen and serve.
type Server struct {
	observer atomic.Pointer[obs.Observer]
	recorder atomic.Pointer[record.Recorder]
	mux      *http.ServeMux
	ln       net.Listener
	srv      *http.Server
}

// New returns a hub serving the given observer (nil is allowed; the
// endpoints then report an empty state until Attach).
func New(o *obs.Observer) *Server {
	s := &Server{mux: http.NewServeMux()}
	s.observer.Store(o)
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/snapshot.json", s.handleSnapshot)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/matrix.json", s.handleMatrix)
	s.mux.HandleFunc("/series.json", s.handleSeries)
	s.mux.HandleFunc("/series/stream", s.handleSeriesStream)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Attach replaces the observer the endpoints serve. Safe concurrently
// with in-flight requests (they finish against the observer they
// loaded).
func (s *Server) Attach(o *obs.Observer) { s.observer.Store(o) }

// Observer returns the currently attached observer (may be nil).
func (s *Server) Observer() *obs.Observer { return s.observer.Load() }

// AttachRecorder replaces the flight recorder /series.json and
// /series/stream serve. Safe concurrently with in-flight requests.
func (s *Server) AttachRecorder(r *record.Recorder) { s.recorder.Store(r) }

// Recorder returns the currently attached recorder (may be nil).
func (s *Server) Recorder() *record.Recorder { return s.recorder.Load() }

// Handler returns the hub's handler for mounting on an external server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. "localhost:8080", or ":0" for an
// ephemeral port) and serves in a background goroutine, returning the
// bound address. Call Close to stop.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("live: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. In-flight requests are abandoned (the hub
// serves diagnostics, not client data).
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `live telemetry hub
  /metrics        Prometheus text exposition of the run's counters, gauges and histograms
  /snapshot.json  current metrics + per-rank communication totals, step, bounds ratio
  /trace          Chrome trace-event JSON of the timeline so far (load in Perfetto)
  /matrix.json    per-phase src x dst communication matrix (messages and bytes)
  /series.json    recorded per-step samples (?last=k or ?from=&to= windows the series)
  /series/stream  live per-step samples as server-sent events (data: one sample per step)
  /debug/pprof    standard Go profiling endpoints
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	o := s.Observer()
	var snap obs.Snapshot
	if o != nil {
		snap = o.Metrics.Snapshot()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, snap)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	o := s.Observer()
	w.Header().Set("Content-Type", "application/json")
	if o == nil || o.Timeline == nil {
		fmt.Fprint(w, `{"traceEvents":[]}`)
		return
	}
	_ = o.Timeline.WriteChromeTrace(w)
}

func (s *Server) handleMatrix(w http.ResponseWriter, _ *http.Request) {
	o := s.Observer()
	var nameOf func(int) string
	if o != nil && o.Timeline != nil {
		nameOf = func(ph int) string { return o.Timeline.PhaseName(uint8(ph)) }
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(o.Matrix().Snapshot(nameOf))
}

// RankSnapshot is one rank's communication totals in /snapshot.json:
// the all-phase traffic plus the comm-phase S (message events, both
// endpoints) and W (bytes, both endpoints) contributions — the live
// per-rank view of the paper's critical-path quantities.
type RankSnapshot struct {
	Rank      int   `json:"rank"`
	SentMsgs  int64 `json:"sent_msgs"`
	SentBytes int64 `json:"sent_bytes"`
	RecvMsgs  int64 `json:"recv_msgs"`
	RecvBytes int64 `json:"recv_bytes"`
	S         int64 `json:"s_events"`
	W         int64 `json:"w_bytes"`
}

// Snapshot is the /snapshot.json document: run position, live
// bounds-versus-measured gauges, per-rank traffic, timeline health,
// and the full metrics snapshot.
type Snapshot struct {
	Step             int64          `json:"step"`
	SMeasured        int64          `json:"s_measured"`
	WMeasured        int64          `json:"w_measured_bytes"`
	SLowerBound      int64          `json:"s_lowerbound"`
	WLowerBound      int64          `json:"w_lowerbound_bytes"`
	ComputeImbalance float64        `json:"compute_imbalance"`
	WorkerImbalance  float64        `json:"worker_imbalance"`
	TimelineDropped  int64          `json:"timeline_dropped"`
	Ranks            []RankSnapshot `json:"ranks,omitempty"`
	Metrics          obs.Snapshot   `json:"metrics"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	o := s.Observer()
	doc := buildSnapshot(o)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// buildSnapshot assembles the snapshot document from the observer's
// concurrency-safe state: gauges for the run position, S/W and bounds,
// the matrix's per-rank totals and the compute imbalance trace.Measure
// reads off them, the worker histogram for the intra-rank imbalance.
func buildSnapshot(o *obs.Observer) Snapshot {
	var doc Snapshot
	if o == nil {
		return doc
	}
	doc.Metrics = o.Metrics.Snapshot()
	doc.Step = doc.Metrics.Gauges["step.current"]
	doc.SMeasured = doc.Metrics.Gauges["comm.s.measured"]
	doc.WMeasured = doc.Metrics.Gauges["comm.w.measured"]
	doc.SLowerBound = doc.Metrics.Gauges["comm.s.lowerbound"]
	doc.WLowerBound = doc.Metrics.Gauges["comm.w.lowerbound"]
	m := o.Matrix()
	measured := trace.Measure(m)
	doc.ComputeImbalance = measured.ComputeImbalance()
	doc.WorkerImbalance = doc.Metrics.Histograms["step.worker_compute_ns"].MaxOver
	doc.TimelineDropped = o.Timeline.Dropped()

	// Per-rank totals come from the matrix, not from trace.Stats: the
	// Stats are owned by the rank goroutines and are not safe to read
	// mid-run, while the matrix's per-rank totals are atomics. A rank's
	// S and W are trace's sums over its own totals.
	for r := 0; r < m.Ranks(); r++ {
		t := trace.RankTable(m, r)
		rs := RankSnapshot{Rank: r, S: t.S(), W: t.W()}
		for _, ps := range t {
			rs.SentMsgs += ps.Messages
			rs.SentBytes += ps.Bytes
			rs.RecvMsgs += ps.RecvMessages
			rs.RecvBytes += ps.RecvBytes
		}
		doc.Ranks = append(doc.Ranks, rs)
	}
	return doc
}

// SeriesDoc is the /series.json document: the recording's metadata and
// the requested window of per-step samples (field names match the
// JSONL recording lines and reuse the /snapshot.json vocabulary).
type SeriesDoc struct {
	Meta        record.Meta   `json:"meta"`
	Total       int64         `json:"total"`
	RingDropped int64         `json:"ring_dropped"`
	Samples     []record.View `json:"samples"`
}

// handleSeries serves the recorded step series. Query parameters window
// it: ?last=k returns the most recent k samples, ?from=&to= a
// half-open step range [from, to); default is everything still in the
// ring. Without a recorder the document is empty (total 0).
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	rec := s.Recorder()
	doc := SeriesDoc{Samples: []record.View{}}
	if rec != nil {
		doc.Meta = rec.Meta()
		var samples []record.Sample
		q := r.URL.Query()
		if last := q.Get("last"); last != "" {
			k, err := strconv.Atoi(last)
			if err != nil {
				http.Error(w, "bad last parameter", http.StatusBadRequest)
				return
			}
			samples = rec.Last(k)
		} else {
			from, to := int64(0), rec.Total()
			var err error
			if v := q.Get("from"); v != "" {
				if from, err = strconv.ParseInt(v, 10, 64); err != nil {
					http.Error(w, "bad from parameter", http.StatusBadRequest)
					return
				}
			}
			if v := q.Get("to"); v != "" {
				if to, err = strconv.ParseInt(v, 10, 64); err != nil {
					http.Error(w, "bad to parameter", http.StatusBadRequest)
					return
				}
			}
			samples = rec.Window(from, to)
		}
		// Read the totals after the samples: the run keeps recording
		// while this handler runs, and totals that were read first could
		// be smaller than the window they are meant to bound.
		doc.Total = rec.Total()
		doc.RingDropped = rec.RingDropped()
		nph := rec.NumPhases()
		for _, smp := range samples {
			doc.Samples = append(doc.Samples, smp.View(nph))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// handleSeriesStream serves the step series as server-sent events: one
// "data:" line per recorded sample, starting with the next sample
// recorded after the subscription. Slow consumers skip samples rather
// than block the recording goroutine (the durable stream is the JSONL
// file; this is the live view). The stream ends when the client
// disconnects.
func (s *Server) handleSeriesStream(w http.ResponseWriter, r *http.Request) {
	rec := s.Recorder()
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ch, cancel := rec.Subscribe(256)
	defer cancel()
	nph := rec.NumPhases()
	for {
		select {
		case smp, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(smp.View(nph))
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
