package core

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/record"
	"repro/internal/phys"
	"repro/internal/trace"
)

// newTestRecorder builds an observer + recorder pair the way the public
// API does: matrix sized to the trace phase vocabulary, recorder keyed
// by it.
func newTestRecorder(alg string, n, p, c int) (*obs.Observer, *record.Recorder) {
	ob := obs.NewObserver(p, 0)
	ob.Timeline.SetPhaseNames(trace.PhaseNames())
	ob.EnsureMatrix(len(trace.PhaseNames()), p)
	rec := record.New(record.Meta{
		Algorithm: alg, N: n, P: p, C: c, Phases: trace.PhaseNames(),
	}, 0)
	return ob, rec
}

// checkSeriesConserves asserts that, per phase, the recording's summed
// per-step traffic deltas equal the report's end-of-run totals bitwise.
func checkSeriesConserves(t *testing.T, samples []record.Sample, rep *trace.Report) {
	t.Helper()
	for _, ph := range trace.Phases() {
		var sm, sb, rm, rb int64
		for _, s := range samples {
			sm += s.SentMsgs[ph]
			sb += s.SentBytes[ph]
			rm += s.RecvMsgs[ph]
			rb += s.RecvBytes[ph]
		}
		want := rep.Sum[ph]
		if sm != want.Messages || sb != want.Bytes {
			t.Errorf("phase %v sent: series (%d msgs, %d B) != report (%d msgs, %d B)",
				ph, sm, sb, want.Messages, want.Bytes)
		}
		if rm != want.RecvMessages || rb != want.RecvBytes {
			t.Errorf("phase %v recv: series (%d msgs, %d B) != report (%d msgs, %d B)",
				ph, rm, rb, want.RecvMessages, want.RecvBytes)
		}
	}
}

// TestRecordingConservesReport runs each recorded algorithm with a JSONL
// stream attached and checks the written recording end-to-end: one
// sample per step, and per-phase traffic columns that sum bitwise to the
// end-of-run trace.Report — the telescoping-delta contract.
func TestRecordingConservesReport(t *testing.T) {
	cases := []struct {
		name string
		run  func(rec *record.Recorder) (int, *trace.Report, error)
	}{
		{"allpairs-p2", func(rec *record.Recorder) (int, *trace.Report, error) {
			pr := defaultParams(2, 1)
			ob, _ := newTestRecorder("", 0, 2, 1)
			pr.Options.Observe = ob
			pr.Record = rec
			_, rep, err := advance(NewAllPairs, phys.InitUniform(32, pr.Box, 7), pr, 5)
			return 5, rep, err
		}},
		{"cutoff-p8c2", func(rec *record.Recorder) (int, *trace.Report, error) {
			pr := cutoffParams(8, 2, 1, phys.Periodic)
			ob, _ := newTestRecorder("", 0, 8, 2)
			pr.Options.Observe = ob
			pr.Record = rec
			_, rep, err := advance(NewCutoff, phys.InitLattice(64, pr.Box, 9), pr, 3)
			return 3, rep, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := record.New(record.Meta{Algorithm: tc.name, Phases: trace.PhaseNames()}, 0)
			var buf bytes.Buffer
			if err := rec.StreamTo(&buf); err != nil {
				t.Fatal(err)
			}
			steps, rep, err := tc.run(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.CloseStream(); err != nil {
				t.Fatal(err)
			}

			meta, samples, err := record.ReadRecording(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) != steps {
				t.Fatalf("recording has %d samples, want %d", len(samples), steps)
			}
			if len(meta.Phases) != len(trace.PhaseNames()) {
				t.Errorf("recording header has %d phases", len(meta.Phases))
			}
			checkSeriesConserves(t, samples, rep)

			// The ring must hold the identical series.
			ring := rec.Window(0, rec.Total())
			if len(ring) != steps {
				t.Fatalf("ring has %d samples, want %d", len(ring), steps)
			}
			for i := range ring {
				if ring[i] != samples[i] {
					t.Errorf("ring sample %d differs from streamed sample:\nring   %+v\nstream %+v", i, ring[i], samples[i])
				}
			}

			// Spot-check the non-comm columns carry real readings.
			last := samples[len(samples)-1]
			if last.WallNs <= 0 {
				t.Error("final sample has no wall time")
			}
			if last.HeapBytes <= 0 || last.Goroutines <= 0 {
				t.Errorf("final sample missing runtime health: heap=%d goroutines=%d", last.HeapBytes, last.Goroutines)
			}
			if last.SMeasured != rep.S() || last.WMeasured != rep.W() {
				t.Errorf("final sample S/W (%d, %d) != report (%d, %d)",
					last.SMeasured, last.WMeasured, rep.S(), rep.W())
			}
			if last.SLowerBound != int64(rep.SLowerBound) || last.WLowerBound != int64(rep.WLowerBound) {
				t.Errorf("final sample bounds (%d, %d) != report (%g, %g)",
					last.SLowerBound, last.WLowerBound, rep.SLowerBound, rep.WLowerBound)
			}
		})
	}
}

// TestSocketRecordingConservesReport records a run spanning two
// socket-joined processes. Only proc 0 is observed and recorded, as
// cmd/nbody runs one; the follower's traffic reaches the recording only
// through the leader's merge of its matrix cells, which finish must
// re-read, so the series still sums to the merged report.
func TestSocketRecordingConservesReport(t *testing.T) {
	pr := defaultParams(4, 2)
	ob, rec := newTestRecorder("allpairs", 32, 4, 2)
	var buf bytes.Buffer
	if err := rec.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, rep := runOverSockets(t, 2, pr, phys.InitUniform(32, pr.Box, 7),
		func(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
			if pr.Proc.ID() == 0 {
				pr.Options.Observe = ob
				pr.Record = rec
			}
			return advance(NewAllPairs, ps, pr, 5)
		})
	if err := rec.CloseStream(); err != nil {
		t.Fatal(err)
	}
	_, samples, err := record.ReadRecording(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("recording has %d samples, want 5", len(samples))
	}
	checkSeriesConserves(t, samples, rep)
	if last := samples[len(samples)-1]; last.SMeasured != rep.S() || last.WMeasured != rep.W() {
		t.Errorf("final sample S/W (%d, %d) != report (%d, %d)",
			last.SMeasured, last.WMeasured, rep.S(), rep.W())
	}
}

// TestRecordingChunkedRuns drives two runs into one recorder the way
// chunked Simulation.Run calls do (the comm matrix accumulates across
// runs; each run records from a fresh rank-0 goroutine). Step numbering
// must stay monotone and the deltas must telescope across the boundary.
func TestRecordingChunkedRuns(t *testing.T) {
	const p, c, n = 4, 2, 32
	ob, rec := newTestRecorder("allpairs", n, p, c)
	ps := phys.InitUniform(n, phys.NewBox(10, 2, phys.Reflective), 11)

	var reps []*trace.Report
	total := 0
	for _, steps := range []int{3, 4} {
		pr := defaultParams(p, c)
		pr.Options.Observe = ob
		pr.Record = rec
		var rep *trace.Report
		var err error
		ps, rep, err = advance(NewAllPairs, ps, pr, steps)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		total += steps
	}

	if rec.Total() != int64(total) {
		t.Fatalf("recorder holds %d samples after chunked runs, want %d", rec.Total(), total)
	}
	samples := rec.Window(0, rec.Total())
	for i, s := range samples {
		if s.Step != int64(i) {
			t.Errorf("sample %d has Step %d — numbering not monotone across runs", i, s.Step)
		}
	}
	// The matrix accumulates over both runs, so the deltas must sum to
	// the two reports' combined traffic.
	combined := &trace.Report{}
	for _, rep := range reps {
		for _, ph := range trace.Phases() {
			combined.Sum[ph].Messages += rep.Sum[ph].Messages
			combined.Sum[ph].Bytes += rep.Sum[ph].Bytes
			combined.Sum[ph].RecvMessages += rep.Sum[ph].RecvMessages
			combined.Sum[ph].RecvBytes += rep.Sum[ph].RecvBytes
		}
	}
	checkSeriesConserves(t, samples, combined)
}

// TestSeriesServesMidRun scrapes /series.json while a recorded run is in
// flight (this test runs under -race via the Makefile's race target, so
// it is also the recorder's concurrent-reader race check) and verifies
// the final series the hub serves matches the finished recording.
func TestSeriesServesMidRun(t *testing.T) {
	const p, c, n, steps = 4, 2, 64, 30
	ob, rec := newTestRecorder("allpairs", n, p, c)
	hub := live.New(ob)
	hub.AttachRecorder(rec)
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	pr := defaultParams(p, c)
	pr.Options.Observe = ob
	pr.Record = rec
	ps := phys.InitUniform(n, pr.Box, 17)

	type runResult struct {
		rep *trace.Report
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		_, rep, err := advance(NewAllPairs, ps, pr, steps)
		done <- runResult{rep, err}
	}()

	fetch := func(path string) live.SeriesDoc {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
		}
		var doc live.SeriesDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, body)
		}
		return doc
	}

	// Poll until the run finishes; every mid-run response must be
	// well-formed and internally consistent.
	var rr runResult
	polls := 0
poll:
	for {
		select {
		case rr = <-done:
			break poll
		default:
			doc := fetch("/series.json?last=8")
			if int64(len(doc.Samples)) > doc.Total {
				t.Fatalf("mid-run series: %d samples of %d total", len(doc.Samples), doc.Total)
			}
			for i := 1; i < len(doc.Samples); i++ {
				if doc.Samples[i].Step != doc.Samples[i-1].Step+1 {
					t.Fatalf("mid-run series steps not consecutive: %d then %d",
						doc.Samples[i-1].Step, doc.Samples[i].Step)
				}
			}
			polls++
		}
	}
	if rr.err != nil {
		t.Fatal(rr.err)
	}

	doc := fetch("/series.json")
	if doc.Total != steps || len(doc.Samples) != steps {
		t.Fatalf("final series has %d samples (total %d), want %d", len(doc.Samples), doc.Total, steps)
	}
	if doc.Meta.Algorithm != "allpairs" || len(doc.Meta.Phases) != len(trace.PhaseNames()) {
		t.Errorf("series meta: %+v", doc.Meta)
	}
	samples := make([]record.Sample, len(doc.Samples))
	for i, v := range doc.Samples {
		samples[i] = v.Sample()
	}
	checkSeriesConserves(t, samples, rr.rep)

	// Windowed query: the last 5 samples by range.
	win := fetch("/series.json?from=25&to=30")
	if len(win.Samples) != 5 || win.Samples[0].Step != 25 {
		t.Errorf("windowed query returned %d samples starting at %v", len(win.Samples),
			func() int64 {
				if len(win.Samples) > 0 {
					return win.Samples[0].Step
				}
				return -1
			}())
	}
	t.Logf("mid-run polls: %d", polls)
}
