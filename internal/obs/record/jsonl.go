package record

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// View is the serialized form of a Sample: the JSONL line of a streamed
// recording and the element type of /series.json. Field names reuse the
// /snapshot.json vocabulary (s_measured, w_measured_bytes, ...) — the
// snapshot golden test pins that schema — and the per-phase arrays are
// positional over Meta.Phases. Fields are append-only.
type View struct {
	Step             int64   `json:"step"`
	WallNs           int64   `json:"wall_ns"`
	PhaseNs          []int64 `json:"phase_ns"`
	SentMsgs         []int64 `json:"sent_msgs"`
	SentBytes        []int64 `json:"sent_bytes"`
	RecvMsgs         []int64 `json:"recv_msgs"`
	RecvBytes        []int64 `json:"recv_bytes"`
	SMeasured        int64   `json:"s_measured"`
	WMeasured        int64   `json:"w_measured_bytes"`
	SLowerBound      int64   `json:"s_lowerbound"`
	WLowerBound      int64   `json:"w_lowerbound_bytes"`
	ComputeImbalance float64 `json:"compute_imbalance"`
	WorkerImbalance  float64 `json:"worker_imbalance"`
	TimelineDropped  int64   `json:"timeline_dropped"`
	HeapBytes        int64   `json:"heap_bytes"`
	GCPauseNs        int64   `json:"gc_pause_ns"`
	NumGC            int64   `json:"num_gc"`
	Goroutines       int64   `json:"goroutines"`
}

// View trims the sample's fixed-size arrays to the recording's phase
// count for serialization.
func (s Sample) View(phases int) View {
	if phases < 0 {
		phases = 0
	}
	if phases > MaxPhases {
		phases = MaxPhases
	}
	return View{
		Step:             s.Step,
		WallNs:           s.WallNs,
		PhaseNs:          append([]int64(nil), s.PhaseNs[:phases]...),
		SentMsgs:         append([]int64(nil), s.SentMsgs[:phases]...),
		SentBytes:        append([]int64(nil), s.SentBytes[:phases]...),
		RecvMsgs:         append([]int64(nil), s.RecvMsgs[:phases]...),
		RecvBytes:        append([]int64(nil), s.RecvBytes[:phases]...),
		SMeasured:        s.SMeasured,
		WMeasured:        s.WMeasured,
		SLowerBound:      s.SLowerBound,
		WLowerBound:      s.WLowerBound,
		ComputeImbalance: s.ComputeImbalance,
		WorkerImbalance:  s.WorkerImbalance,
		TimelineDropped:  s.TimelineDropped,
		HeapBytes:        s.HeapBytes,
		GCPauseNs:        s.GCPauseNs,
		NumGC:            s.NumGC,
		Goroutines:       s.Goroutines,
	}
}

// Sample widens the view back to the fixed-size in-memory form. Phase
// arrays longer than MaxPhases are truncated.
func (v View) Sample() Sample {
	s := Sample{
		Step:             v.Step,
		WallNs:           v.WallNs,
		SMeasured:        v.SMeasured,
		WMeasured:        v.WMeasured,
		SLowerBound:      v.SLowerBound,
		WLowerBound:      v.WLowerBound,
		ComputeImbalance: v.ComputeImbalance,
		WorkerImbalance:  v.WorkerImbalance,
		TimelineDropped:  v.TimelineDropped,
		HeapBytes:        v.HeapBytes,
		GCPauseNs:        v.GCPauseNs,
		NumGC:            v.NumGC,
		Goroutines:       v.Goroutines,
	}
	copy(s.PhaseNs[:], v.PhaseNs)
	copy(s.SentMsgs[:], v.SentMsgs)
	copy(s.SentBytes[:], v.SentBytes)
	copy(s.RecvMsgs[:], v.RecvMsgs)
	copy(s.RecvBytes[:], v.RecvBytes)
	return s
}

// streamer is one attached JSONL sink: a buffered channel the recording
// goroutine sends into and a writer goroutine that encodes.
type streamer struct {
	ch   chan Sample
	done chan struct{}
	err  error // written by the writer goroutine before done closes
}

// StreamTo attaches w as the recording's JSONL sink: the header line is
// written immediately, then one JSON line per sample as it is recorded,
// encoded on a dedicated goroutine. Only samples recorded after the
// attach are streamed — attach before Run for a complete recording. One
// stream at a time; finish with CloseStream (which must not race
// RecordCumulative — close after the run returns, as RunEnd sequences
// the last sample before the driver regains control).
func (r *Recorder) StreamTo(w io.Writer) error {
	if r == nil {
		return errors.New("record: nil recorder")
	}
	hdr, err := json.Marshal(r.meta)
	if err != nil {
		return err
	}
	st := &streamer{ch: make(chan Sample, 1024), done: make(chan struct{})}
	if !r.stream.CompareAndSwap(nil, st) {
		return errors.New("record: a stream is already attached")
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		r.stream.Store(nil)
		return err
	}
	phases := len(r.meta.Phases)
	go func() {
		defer close(st.done)
		bw := bufio.NewWriterSize(w, 64<<10)
		enc := json.NewEncoder(bw) // Encode appends the newline
		for s := range st.ch {
			if st.err != nil {
				continue // drain so the recorder never blocks on a dead sink
			}
			st.err = enc.Encode(s.View(phases))
		}
		if ferr := bw.Flush(); st.err == nil {
			st.err = ferr
		}
	}()
	return nil
}

// CloseStream detaches the JSONL sink, waits for every queued sample to
// be written, and returns the first write error. No-op without a
// stream.
func (r *Recorder) CloseStream() error {
	if r == nil {
		return nil
	}
	st := r.stream.Swap(nil)
	if st == nil {
		return nil
	}
	close(st.ch)
	<-st.done
	return st.err
}

// sink wraps a created file with optional gzip compression.
type sink struct {
	io.Writer
	gz *gzip.Writer
	f  *os.File
}

func (s *sink) Close() error {
	var err error
	if s.gz != nil {
		err = s.gz.Close()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenSink creates path for a streamed recording, gzip-compressing when
// the path ends in ".gz" (the long-run format). Close after
// CloseStream.
func OpenSink(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &sink{Writer: f, f: f}
	if strings.HasSuffix(path, ".gz") {
		s.gz = gzip.NewWriter(f)
		s.Writer = s.gz
	}
	return s, nil
}

// ReadRecording parses a JSONL recording (header line, then one sample
// per line) from r.
func ReadRecording(r io.Reader) (Meta, []Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Meta{}, nil, err
		}
		return Meta{}, nil, errors.New("record: empty recording")
	}
	var meta Meta
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("record: bad recording header: %w", err)
	}
	if meta.Kind != DocKind {
		return Meta{}, nil, fmt.Errorf("record: not a recording (kind %q)", meta.Kind)
	}
	var samples []Sample
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var v View
		if err := json.Unmarshal(line, &v); err != nil {
			return meta, samples, fmt.Errorf("record: bad sample line %d: %w", len(samples)+2, err)
		}
		samples = append(samples, v.Sample())
	}
	return meta, samples, sc.Err()
}
