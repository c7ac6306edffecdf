package record

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mkSamples builds n telescoped samples with the given per-step wall
// time and one active phase.
func mkSamples(n int, wallNs int64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i].Step = int64(i)
		out[i].WallNs = wallNs
		out[i].PhaseNs[0] = wallNs / 2
		out[i].SentMsgs[0] = 4
		out[i].SentBytes[0] = 400
		out[i].RecvMsgs[0] = 4
		out[i].RecvBytes[0] = 400
		out[i].SMeasured = int64(10 * (i + 1))
		out[i].SLowerBound = int64(5 * (i + 1))
		out[i].WMeasured = int64(1000 * (i + 1))
		out[i].WLowerBound = int64(400 * (i + 1))
		out[i].HeapBytes = int64(1 << 20)
		out[i].Goroutines = 9
	}
	return out
}

func TestFromRecording(t *testing.T) {
	meta := Meta{Algorithm: "allpairs", N: 64, P: 4, C: 2, Phases: []string{"compute", "broadcast"}}
	doc := FromRecording(meta, mkSamples(10, 2000))
	if doc.Key != meta.Key() {
		t.Fatalf("doc header: %+v", doc)
	}
	checks := map[string]float64{
		"steps":                             10,
		"step.wall_ns.mean":                 2000,
		"step.wall_ns.p50":                  2000,
		"step.wall_ns.max":                  2000,
		"phase.compute.ns_per_step":         1000,
		"phase.compute.sent_msgs_per_step":  4,
		"phase.compute.sent_bytes_per_step": 400,
		"comm.s.measured":                   100,
		"comm.w.measured_bytes":             10000,
		"comm.s.over_bound":                 2,
		"comm.w.over_bound":                 2.5,
		"heap.max_bytes":                    1 << 20,
		"goroutines.max":                    9,
		"timeline.dropped":                  0,
	}
	for name, want := range checks {
		if got, ok := doc.Metrics[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	// The all-zero phase must be omitted, not reported as flat zero.
	if _, ok := doc.Metrics["phase.broadcast.ns_per_step"]; ok {
		t.Error("inactive phase folded into metrics")
	}
	if len(doc.StepWall) != 10 {
		t.Errorf("StepWall has %d entries", len(doc.StepWall))
	}

	empty := FromRecording(meta, nil)
	if empty.Metrics["steps"] != 0 || len(empty.StepWall) != 0 {
		t.Errorf("empty recording folded to %+v", empty.Metrics)
	}
}

func TestDirectionOf(t *testing.T) {
	cases := map[string]Direction{
		"step.wall_ns.p50":                   WorseUp,
		"kernel.lj_cut/kernel.ns_per_op":     WorseUp,
		"kernel.lj_cut/kernel.allocs_per_op": WorseUp,
		"phase.compute.sent_bytes_per_step":  WorseUp,
		"phase.shift.recv_msgs_per_step":     WorseUp,
		"timeline.dropped":                   WorseUp,
		"goroutines.max":                     WorseUp,
		"comm.s.measured":                    WorseUp,
		"comm.w.over_bound":                  WorseUp,
		"speedup.lj_cut":                     WorseDown,
		"transport.allpairs.speedup":         WorseDown,
		"recorder.overhead_frac":             Neutral,
		"steps":                              Neutral,
	}
	for name, want := range cases {
		if got := DirectionOf(name); got != want {
			t.Errorf("DirectionOf(%s) = %v, want %v", name, got, want)
		}
	}
	if Neutral.String() != "neutral" || WorseUp.String() != "worse-if-up" || WorseDown.String() != "worse-if-down" {
		t.Error("Direction strings changed")
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	meta := Meta{Algorithm: "allpairs", Phases: []string{"compute"}}
	base := FromRecording(meta, mkSamples(10, 1000))
	slow := FromRecording(meta, mkSamples(10, 2000)) // injected 2x step-time regression

	rows := Diff(base, slow, DiffOptions{Threshold: 1.5})
	breaches := map[string]bool{}
	for _, r := range rows {
		if r.Breach {
			breaches[r.Name] = true
		}
	}
	for _, want := range []string{"step.wall_ns.mean", "step.wall_ns.p50", "step.wall_ns.max", "step.wall_ns.aligned_p50", "phase.compute.ns_per_step"} {
		if !breaches[want] {
			t.Errorf("2x regression did not breach %s (breaches: %v)", want, breaches)
		}
	}
	for _, name := range []string{"steps", "phase.compute.sent_msgs_per_step", "comm.s.measured"} {
		if breaches[name] {
			t.Errorf("unchanged metric %s breached", name)
		}
	}
	// Breaches must sort first.
	if len(rows) == 0 || !rows[0].Breach {
		t.Error("breaching rows not sorted first")
	}

	// Same doc against itself: nothing breaches.
	for _, r := range Diff(base, base, DiffOptions{Threshold: 1.5}) {
		if r.Breach {
			t.Errorf("self-diff breached %s", r.Name)
		}
	}
	// Threshold 0 is report-only.
	for _, r := range Diff(base, slow, DiffOptions{}) {
		if r.Breach {
			t.Errorf("threshold 0 gated %s", r.Name)
		}
	}
}

func TestDiffWorseDownAndOverrides(t *testing.T) {
	oldDoc := MetricDoc{Metrics: map[string]float64{
		"speedup.lj_cut":   2.0,
		"step.wall_ns.p50": 1000,
		"zero.before_ns":   0,
	}}
	newDoc := MetricDoc{Metrics: map[string]float64{
		"speedup.lj_cut":   1.0, // halved: breaches worse-if-down at 1.5
		"step.wall_ns.p50": 1200,
		"zero.before_ns":   5, // 0 → nonzero: ratio +Inf, breaches
	}}
	rows := Diff(oldDoc, newDoc, DiffOptions{
		Threshold: 1.5,
		PerMetric: map[string]float64{"step.wall_ns.p50": 1.1},
	})
	got := map[string]DiffRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	if !got["speedup.lj_cut"].Breach {
		t.Error("halved speedup did not breach")
	}
	if r := got["step.wall_ns.p50"]; !r.Breach || r.Threshold != 1.1 {
		t.Errorf("per-metric override not applied: %+v", r)
	}
	if r := got["zero.before_ns"]; !math.IsInf(r.Ratio, 1) || !r.Breach {
		t.Errorf("zero-to-nonzero row: %+v", r)
	}
}

func TestDiffExactGate(t *testing.T) {
	oldDoc := MetricDoc{Metrics: map[string]float64{
		"phase.shift.sent_msgs_per_step": 8,
		"comm.s.measured":                64,
		"step.wall_ns.p50":               1000,
	}}
	newDoc := MetricDoc{Metrics: map[string]float64{
		"phase.shift.sent_msgs_per_step": 9,    // within any ratio threshold, but not exact
		"comm.s.measured":                64,   // identical: passes the exact gate
		"step.wall_ns.p50":               1400, // wall time drifts; not gated exactly
	}}
	rows := Diff(oldDoc, newDoc, DiffOptions{
		Threshold: 0, // report-only by ratio; only the exact gate may breach
		Exact:     []string{"sent_msgs", "comm.s.measured"},
	})
	got := map[string]DiffRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	if !got["phase.shift.sent_msgs_per_step"].Breach {
		t.Error("8 → 9 messages survived an exact gate")
	}
	if got["comm.s.measured"].Breach {
		t.Error("identical comm.s.measured breached")
	}
	if got["step.wall_ns.p50"].Breach {
		t.Error("ungated wall time breached with threshold 0")
	}
}

func TestLoadMetricDocSniffing(t *testing.T) {
	dir := t.TempDir()

	// A streamed recording (gz, to exercise decompression too).
	recPath := filepath.Join(dir, "run.jsonl.gz")
	w, err := OpenSink(recPath)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Meta{Algorithm: "allpairs", N: 64, P: 4, Phases: []string{"compute"}}, 0)
	if err := r.StreamTo(w); err != nil {
		t.Fatal(err)
	}
	r.RunBegin()
	stamp(r, 3, 1)
	stamp(r, 8, 1)
	r.RunEnd(nil)
	if err := r.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	doc, err := LoadMetricDoc(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Path != recPath || doc.Metrics["steps"] != 2 {
		t.Errorf("recording doc: %+v", doc)
	}

	// Anything else is an error that names the file.
	otherPath := filepath.Join(dir, "other.json")
	if err := os.WriteFile(otherPath, []byte(`{"kind":"canbody-bench","speedups":{"x":2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMetricDoc(otherPath); err == nil || !strings.Contains(err.Error(), otherPath) {
		t.Errorf("a file that is not a recording: err = %v, want one naming %s", err, otherPath)
	}

	if _, err := LoadMetricDoc(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDiffAlignedMedianUsesCommonPrefix(t *testing.T) {
	// A longer new run must be compared over the shared step prefix only.
	oldDoc := MetricDoc{Metrics: map[string]float64{}, StepWall: []int64{100, 100, 100}}
	newDoc := MetricDoc{Metrics: map[string]float64{}, StepWall: []int64{100, 100, 100, 9999, 9999, 9999}}
	rows := Diff(oldDoc, newDoc, DiffOptions{Threshold: 1.5})
	if len(rows) != 1 || rows[0].Name != "step.wall_ns.aligned_p50" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Ratio != 1 || rows[0].Breach {
		t.Errorf("aligned median leaked the tail: %+v", rows[0])
	}
}
