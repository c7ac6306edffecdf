package live

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// TestSnapshotGolden locks the exact /snapshot.json bytes for a
// deterministic observer against a committed golden file. The snapshot
// schema is shared vocabulary: /series.json samples reuse its field
// names (s_measured, w_measured_bytes, ...) and dashboards key on them,
// so a rename must show up as a reviewed diff, not a silently broken
// consumer.
func TestSnapshotGolden(t *testing.T) {
	o := obs.NewObserver(2, 64)
	o.Timeline.SetPhaseNames([]string{"compute", "shift"})
	o.Metrics.Counter("comm.sent.msgs").Add(42)
	o.Metrics.Gauge("comm.s.measured").Set(96)
	o.Metrics.Gauge("comm.w.measured").Set(5120)
	o.Metrics.Gauge("comm.s.lowerbound").Set(32)
	o.Metrics.Gauge("comm.w.lowerbound").Set(2048)
	o.Metrics.Gauge("step.current").Set(7)
	hw := o.Metrics.Histogram("step.worker_compute_ns")
	hw.Observe(200)
	hw.Observe(200)
	m := o.EnsureMatrix(2, 2)
	// Phase 1 ("shift") is a comm phase.
	m.AddCells([]obs.MatrixCell{{Phase: 1, Src: 0, Dst: 1, SentMsgs: 1, SentBytes: 128, RecvMsgs: 1, RecvBytes: 128}})
	m.AddTime(0, 0, 100) // phase 0 is trace.Compute: imbalance 300/200
	m.AddTime(1, 0, 300)

	s := New(o)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "snapshot.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/snapshot.json drifted from %s (run with -update to accept):\ngot:\n%swant:\n%s", golden, got, want)
	}
}
