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

// observedLoop is one timestep loop the observed-run tests cover, with
// its parameters, particles and step count.
type observedLoop struct {
	name  string
	newS  func([]phys.Particle, Params) (*Session, error)
	pr    Params
	ps    []phys.Particle
	steps int
}

// observedLoops are the all-pairs loop, the 1-D periodic and 2-D
// reflective cutoff loops, the particle decomposition and the naive
// all-gather, each sized so that two socket-joined processes split its
// ranks.
func observedLoops() []observedLoop {
	ap2, ap, part := defaultParams(2, 1), defaultParams(4, 2), defaultParams(4, 1)
	cut1, cut2 := cutoffParams(8, 2, 1, phys.Periodic), cutoffParams(16, 1, 2, phys.Reflective)
	return []observedLoop{
		{"allpairs-p2", NewAllPairs, ap2, phys.InitUniform(32, ap2.Box, 7), 5},
		{"allpairs-p4c2", NewAllPairs, ap, phys.InitUniform(32, ap.Box, 7), 5},
		{"cutoff-p8c2", NewCutoff, cut1, phys.InitLattice(64, cut1.Box, 9), 3},
		{"cutoff-2d-p16", NewCutoff, cut2, phys.InitLattice(256, cut2.Box, 13), 3},
		{"particle-p4", NewParticleDecomposition, part, phys.InitUniform(32, part.Box, 7), 4},
		{"naive-p4", NewNaiveAllGather, part, phys.InitUniform(32, part.Box, 7), 4},
	}
}

// checkPublished asserts that the gauges of an observed run and the
// last sample of its recording equal the report's S, W and bounds, and
// that the four traffic counters equal the report's summed traffic.
// timed says rep timed the very steps the observer saw (one Advance),
// so that the compute imbalance the last sample and /snapshot.json
// publish must be the report's as well.
func checkPublished(t *testing.T, ob *obs.Observer, last record.Sample, rep *trace.Report, steps int, timed bool) {
	t.Helper()
	if rep.SLowerBound <= 0 || rep.WLowerBound <= 0 || rep.S() <= 0 {
		t.Fatalf("report has no traffic or bounds: S %d, bounds %g / %g", rep.S(), rep.SLowerBound, rep.WLowerBound)
	}
	snap := ob.Metrics.Snapshot()
	g, ctr := snap.Gauges, snap.Counters
	var sum trace.PhaseStats
	for _, ph := range trace.Phases() {
		sum.Add(rep.Sum[ph])
	}
	sLow, wLow := int64(rep.SLowerBound), int64(rep.WLowerBound)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"comm.s.measured", g["comm.s.measured"], rep.S()},
		{"comm.w.measured", g["comm.w.measured"], rep.W()},
		{"comm.s.lowerbound", g["comm.s.lowerbound"], sLow},
		{"comm.w.lowerbound", g["comm.w.lowerbound"], wLow},
		{"step.current", g["step.current"], int64(steps)},
		{"last sample's SMeasured", last.SMeasured, rep.S()},
		{"last sample's WMeasured", last.WMeasured, rep.W()},
		{"last sample's SLowerBound", last.SLowerBound, sLow},
		{"last sample's WLowerBound", last.WLowerBound, wLow},
		{"comm.sent.msgs", ctr["comm.sent.msgs"], sum.Messages},
		{"comm.sent.bytes", ctr["comm.sent.bytes"], sum.Bytes},
		{"comm.recv.msgs", ctr["comm.recv.msgs"], sum.RecvMessages},
		{"comm.recv.bytes", ctr["comm.recv.bytes"], sum.RecvBytes},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if _, ok := snap.Histograms["step.compute_ns"]; ok {
		t.Error("step.compute_ns is registered; the compute imbalance is trace.Measure's")
	}
	if !timed {
		return
	}
	w := httptest.NewRecorder()
	live.New(ob).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/snapshot.json", nil))
	var doc live.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/snapshot.json: %v\n%s", err, w.Body.Bytes())
	}
	want := rep.ComputeImbalance()
	if want == 1 {
		t.Fatalf("report's compute imbalance is exactly 1: no compute time was charged")
	}
	if last.ComputeImbalance != want || doc.ComputeImbalance != want {
		t.Errorf("compute imbalance: last sample %g, /snapshot.json %g, report %g", last.ComputeImbalance, doc.ComputeImbalance, want)
	}
}

// TestRecordingConservesReport runs each loop observed and recorded with
// a JSONL stream attached and checks the written recording end-to-end:
// one sample per step, per-phase traffic columns that sum bitwise to the
// end-of-run trace.Report — the telescoping-delta contract — and a last
// sample and gauges that equal the report's S, W and bounds.
func TestRecordingConservesReport(t *testing.T) {
	for _, tc := range observedLoops() {
		t.Run(tc.name, func(t *testing.T) {
			ob, rec := newTestRecorder(tc.name, len(tc.ps), tc.pr.P, tc.pr.C)
			var buf bytes.Buffer
			if err := rec.StreamTo(&buf); err != nil {
				t.Fatal(err)
			}
			pr := tc.pr
			pr.Options.Observe = ob
			pr.Record = rec
			_, rep, err := advance(tc.newS, tc.ps, pr, tc.steps)
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
			if len(samples) != tc.steps {
				t.Fatalf("recording has %d samples, want %d", len(samples), tc.steps)
			}
			if len(meta.Phases) != len(trace.PhaseNames()) {
				t.Errorf("recording header has %d phases", len(meta.Phases))
			}
			checkSeriesConserves(t, samples, rep)

			// The ring must hold the identical series.
			ring := rec.Window(0, rec.Total())
			if len(ring) != tc.steps {
				t.Fatalf("ring has %d samples, want %d", len(ring), tc.steps)
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
			checkPublished(t, ob, last, rep, tc.steps, true)
		})
	}
}

// TestSocketRecordingConservesReport records each loop spanning two
// socket-joined processes. Only proc 0 is observed and recorded, as
// cmd/nbody runs one; the follower's traffic reaches the recording and
// the gauges only through the leader's merge of its matrix cells, which
// the publish after the join reads, so the series still sums to the
// merged report and the gauges equal its S, W and bounds.
func TestSocketRecordingConservesReport(t *testing.T) {
	for _, tc := range observedLoops() {
		t.Run(tc.name, func(t *testing.T) {
			ob, rec := newTestRecorder(tc.name, len(tc.ps), tc.pr.P, tc.pr.C)
			var buf bytes.Buffer
			if err := rec.StreamTo(&buf); err != nil {
				t.Fatal(err)
			}
			_, rep := runOverSockets(t, 2, tc.pr, tc.ps,
				func(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
					if pr.Proc.ID() == 0 {
						pr.Options.Observe = ob
						pr.Record = rec
					}
					return advance(tc.newS, ps, pr, tc.steps)
				})
			if err := rec.CloseStream(); err != nil {
				t.Fatal(err)
			}
			_, samples, err := record.ReadRecording(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) != tc.steps {
				t.Fatalf("recording has %d samples, want %d", len(samples), tc.steps)
			}
			checkSeriesConserves(t, samples, rep)
			checkPublished(t, ob, samples[len(samples)-1], rep, tc.steps, true)
		})
	}
}

// TestRecordingChunkedRuns drives one observed, recorded session through
// Advance(3) and Advance(5), the way chunked Simulation.Run calls do:
// the comm matrix accumulates across the calls, and each records from a
// fresh rank-0 goroutine. Step numbering must stay monotone, the deltas
// must telescope across the boundary, S and W must never decrease, and
// the last sample and the gauges must equal the report of Advance(8) on
// a fresh, identical session — one definition of S and W, cumulative
// over the observer's life.
func TestRecordingChunkedRuns(t *testing.T) {
	ap, cut2 := defaultParams(4, 2), cutoffParams(16, 1, 2, phys.Reflective)
	for _, tc := range []observedLoop{
		{"allpairs-p4c2", NewAllPairs, ap, phys.InitUniform(32, ap.Box, 11), 8},
		{"cutoff-2d-p16", NewCutoff, cut2, phys.InitLattice(256, cut2.Box, 13), 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ob, rec := newTestRecorder(tc.name, len(tc.ps), tc.pr.P, tc.pr.C)
			pr := tc.pr
			pr.Options.Observe = ob
			pr.Record = rec
			s, err := tc.newS(tc.ps, pr)
			if err != nil {
				t.Fatal(err)
			}
			combined := &trace.Report{}
			for _, steps := range []int{3, 5} {
				_, rep, err := s.Advance(steps)
				if err != nil {
					t.Fatal(err)
				}
				for _, ph := range trace.Phases() {
					combined.Sum[ph].Add(rep.Sum[ph])
				}
			}

			if rec.Total() != int64(tc.steps) {
				t.Fatalf("recorder holds %d samples after chunked runs, want %d", rec.Total(), tc.steps)
			}
			samples := rec.Window(0, rec.Total())
			for i, smp := range samples {
				if smp.Step != int64(i) {
					t.Errorf("sample %d has Step %d — numbering not monotone across runs", i, smp.Step)
				}
				if i > 0 && (smp.SMeasured < samples[i-1].SMeasured || smp.WMeasured < samples[i-1].WMeasured) {
					t.Errorf("sample %d: S/W fell from (%d, %d) to (%d, %d)", i,
						samples[i-1].SMeasured, samples[i-1].WMeasured, smp.SMeasured, smp.WMeasured)
				}
			}
			// The matrix accumulates over both runs, so the deltas must sum
			// to the two reports' combined traffic.
			checkSeriesConserves(t, samples, combined)

			fresh := tc.pr
			fresh.Options.Observe, _ = newTestRecorder(tc.name, len(tc.ps), tc.pr.P, tc.pr.C)
			_, want, err := advance(tc.newS, tc.ps, fresh, tc.steps)
			if err != nil {
				t.Fatal(err)
			}
			checkPublished(t, ob, samples[len(samples)-1], want, tc.steps, false)
		})
	}
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
