package live

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestEndpoints(t *testing.T) {
	o := obs.NewObserver(2, 64)
	o.Timeline.SetPhaseNames([]string{"compute", "shift"})
	o.Metrics.Counter("comm.sent.msgs").Add(3)
	o.Metrics.Gauge("comm.s.measured").Set(12)
	o.Metrics.Gauge("comm.s.lowerbound").Set(4)
	o.Metrics.Gauge("step.current").Set(7)
	m := o.EnsureMatrix(2, 2)
	m.AddCells([]obs.MatrixCell{{Phase: 1, Src: 0, Dst: 1, SentMsgs: 1, SentBytes: 128, RecvMsgs: 1, RecvBytes: 128}})
	tr := o.Timeline.Rank(0)
	tr.Phase(1)
	tr.Send(1, 5, 128, 1)
	tr.Close()

	s := New(o)
	addr, err := s.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr

	body, ct := get(t, base+"/metrics")
	if !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content-type %q", ct)
	}
	for _, want := range []string{"comm_sent_msgs 3", "comm_s_measured 12", "comm_s_lowerbound 4"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	body, ct = get(t, base+"/trace")
	if ct != "application/json" {
		t.Errorf("trace content-type %q", ct)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, body)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}

	body, _ = get(t, base+"/matrix.json")
	var mat obs.MatrixSnapshot
	if err := json.Unmarshal([]byte(body), &mat); err != nil {
		t.Fatalf("matrix JSON: %v\n%s", err, body)
	}
	if mat.Ranks != 2 || len(mat.Phases) != 1 || mat.Phases[0].SentMsgs[0][1] != 1 {
		t.Errorf("matrix snapshot %+v", mat)
	}
	if mat.Phases[0].Name != "shift" {
		t.Errorf("matrix phase name %q, want shift", mat.Phases[0].Name)
	}

	body, _ = get(t, base+"/snapshot.json")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot JSON: %v\n%s", err, body)
	}
	if snap.Step != 7 || snap.SMeasured != 12 || snap.SLowerBound != 4 {
		t.Errorf("snapshot gauges %+v", snap)
	}
	if len(snap.Ranks) != 2 || snap.Ranks[0].SentMsgs != 1 || snap.Ranks[1].RecvMsgs != 1 {
		t.Errorf("snapshot ranks %+v", snap.Ranks)
	}
	if snap.Ranks[0].S != 1 || snap.Ranks[1].S != 1 {
		t.Errorf("snapshot comm-phase S %+v", snap.Ranks)
	}

	body, _ = get(t, base+"/")
	if !strings.Contains(body, "/metrics") {
		t.Errorf("index missing endpoint list:\n%s", body)
	}
}

// TestNilObserver checks every endpoint degrades gracefully before an
// observer is attached.
func TestNilObserver(t *testing.T) {
	s := New(nil)
	addr, err := s.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr
	for _, ep := range []string{"/metrics", "/trace", "/matrix.json", "/snapshot.json"} {
		body, _ := get(t, base+ep)
		if strings.Contains(ep, ".json") || ep == "/trace" {
			var v any
			if err := json.Unmarshal([]byte(body), &v); err != nil {
				t.Errorf("%s with nil observer: invalid JSON %v", ep, err)
			}
		}
	}
}

// TestAttachSwap checks a long-lived hub can switch observers between
// runs, as `nbody sweep` does per configuration.
func TestAttachSwap(t *testing.T) {
	o1 := obs.NewObserver(1, 16)
	o1.Metrics.Gauge("step.current").Set(1)
	o2 := obs.NewObserver(1, 16)
	o2.Metrics.Gauge("step.current").Set(2)
	s := New(o1)
	addr, err := s.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr
	body, _ := get(t, base+"/snapshot.json")
	if !strings.Contains(body, `"step": 1`) {
		t.Errorf("before swap: %s", body)
	}
	s.Attach(o2)
	body, _ = get(t, base+"/snapshot.json")
	if !strings.Contains(body, `"step": 2`) {
		t.Errorf("after swap: %s", body)
	}
}

// TestMidRunScrapes hammers every endpoint while writer goroutines are
// concurrently recording events, metrics and matrix traffic — the
// mid-run serving contract, checked under -race by the Makefile's race
// target.
func TestMidRunScrapes(t *testing.T) {
	o := obs.NewObserver(2, 256)
	o.Timeline.SetPhaseNames([]string{"compute", "shift"})
	o.EnsureMatrix(2, 2)
	s := New(o)
	addr, err := s.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + addr

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := o.Timeline.Rank(r)
			ctr := o.Metrics.Counter("comm.sent.msgs")
			mat := o.Matrix()
			cell := make([]obs.MatrixCell, 1)
			var seq uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					tr.Close()
					return
				default:
				}
				tr.Phase(uint8(i % 2))
				seq++
				tr.Send(1-r, 0, 64, seq)
				tr.Recv(tr.Now(), 1-r, 0, 64, seq)
				ctr.Inc()
				cell[0] = obs.MatrixCell{Phase: i % 2, Src: r, Dst: 1 - r, SentMsgs: 1, SentBytes: 64, RecvMsgs: 1, RecvBytes: 64}
				mat.AddCells(cell)
			}
		}(r)
	}
	for i := 0; i < 5; i++ {
		for _, ep := range []string{"/metrics", "/trace", "/matrix.json", "/snapshot.json"} {
			body, _ := get(t, base+ep)
			if ep != "/metrics" {
				var v any
				if err := json.Unmarshal([]byte(body), &v); err != nil {
					t.Errorf("mid-run %s: invalid JSON: %v", ep, err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
