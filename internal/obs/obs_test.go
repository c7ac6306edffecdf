package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRingWraparound(t *testing.T) {
	tl := NewTimeline(1, 4)
	tr := tl.Rank(0)
	for i := 0; i < 10; i++ {
		tr.Send(i, i, i, uint64(i+1))
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
	if tr.Cap() != 4 {
		t.Errorf("Cap = %d, want 4", tr.Cap())
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	// The survivors are the last four sends, in order.
	for i, ev := range evs {
		want := int32(6 + i)
		if ev.Peer != want || ev.Kind != KindSend {
			t.Errorf("event %d = %+v, want peer %d", i, ev, want)
		}
	}
	if tl.Dropped() != 6 {
		t.Errorf("timeline Dropped = %d, want 6", tl.Dropped())
	}
}

func TestRingBelowCapacity(t *testing.T) {
	tl := NewTimeline(2, 8)
	tr := tl.Rank(1)
	tr.Send(3, 7, 100, 0)
	tr.Send(4, 7, 200, 0)
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", tr.Dropped())
	}
	evs := tl.Events(1)
	if len(evs) != 2 || evs[0].Peer != 3 || evs[1].Peer != 4 {
		t.Errorf("events = %+v", evs)
	}
	if len(tl.Events(0)) != 0 {
		t.Errorf("rank 0 should be empty")
	}
}

// TestDisabledPathAllocs is the allocation guard of the acceptance
// criteria: the nil tracer, nil registry and nil instruments must not
// allocate on any hot-path call.
func TestDisabledPathAllocs(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	ctr := reg.Counter("x")
	h := reg.Histogram("x")
	g := reg.Gauge("x")
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Phase(1)
		tr.Send(1, 2, 3, 0)
		tr.Recv(tr.Now(), 1, 2, 3, 0)
		tr.Collective(KindBcast, tr.Now(), 0)
		tr.Close()
		ctr.Inc()
		h.Observe(42)
		g.Set(7)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", allocs)
	}
}

func TestDisabledTimelineAndRank(t *testing.T) {
	var tl *Timeline
	if tl.Rank(0) != nil || tl.Ranks() != 0 || tl.Dropped() != 0 {
		t.Error("nil timeline should behave as empty")
	}
	tl2 := NewTimeline(2, 4)
	if tl2.Rank(-1) != nil || tl2.Rank(2) != nil {
		t.Error("out-of-range rank should yield the disabled tracer")
	}
}

func TestPhaseSpans(t *testing.T) {
	tl := NewTimeline(1, 16)
	tl.SetPhaseNames([]string{"compute", "broadcast"})
	tr := tl.Rank(0)
	tr.Phase(0)
	tr.Phase(0) // re-entering the open phase is a no-op
	tr.Phase(1) // closes compute
	tr.Close()  // closes broadcast
	tr.Close()  // idempotent
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %+v, want 2 spans", evs)
	}
	if evs[0].Kind != KindPhase || evs[0].Phase != 0 || evs[1].Phase != 1 {
		t.Errorf("span events = %+v", evs)
	}
	if evs[0].End() > evs[1].Start {
		t.Errorf("spans overlap: %+v", evs)
	}
	if tl.PhaseName(1) != "broadcast" || tl.PhaseName(9) != "phase9" {
		t.Errorf("phase names: %q %q", tl.PhaseName(1), tl.PhaseName(9))
	}
}

func TestChromeTraceExport(t *testing.T) {
	tl := NewTimeline(2, 16)
	tl.SetPhaseNames([]string{"compute", "shift"})
	for r := 0; r < 2; r++ {
		tr := tl.Rank(r)
		tr.Phase(1)
		tr.Send(1-r, 42, 128, 0)
		start := tr.Now()
		tr.Recv(start, 1-r, 42, 128, 0)
		tr.Collective(KindBcast, start, 64)
		tr.Close()
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome JSON: %v\n%s", err, buf.String())
	}
	// 2 ranks × (1 metadata + 1 span + 1 send + 1 recv + 1 collective).
	if len(doc.TraceEvents) != 10 {
		t.Fatalf("got %d events, want 10:\n%s", len(doc.TraceEvents), buf.String())
	}
	pids := map[float64]bool{}
	var sawSpan, sawSend, sawMeta bool
	for _, ev := range doc.TraceEvents {
		pids[ev["pid"].(float64)] = true
		switch ev["ph"] {
		case "M":
			sawMeta = true
			if name := ev["args"].(map[string]any)["name"]; name != "rank 0" && name != "rank 1" {
				t.Errorf("process name %v", name)
			}
		case "X":
			if ev["name"] == "shift" {
				sawSpan = true
			}
		case "i":
			sawSend = true
			args := ev["args"].(map[string]any)
			if args["bytes"].(float64) != 128 || args["tag"].(float64) != 42 {
				t.Errorf("send args %v", args)
			}
		}
	}
	if !sawMeta || !sawSpan || !sawSend {
		t.Errorf("missing event kinds: meta=%v span=%v send=%v", sawMeta, sawSpan, sawSend)
	}
	if len(pids) != 2 {
		t.Errorf("want one pid per rank, got %v", pids)
	}
}

func TestJSONLExport(t *testing.T) {
	tl := NewTimeline(1, 8)
	tl.SetPhaseNames([]string{"compute"})
	tr := tl.Rank(0)
	tr.Phase(0)
	tr.Send(5, 9, 256, 0)
	tr.Close()
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec["rank"].(float64) != 0 {
			t.Errorf("rank field: %v", rec)
		}
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("msgs").Add(3)
	reg.Counter("msgs").Inc()
	reg.Gauge("depth").Set(5)
	h := reg.Histogram("bytes")
	for _, v := range []int64{1, 2, 3, 1000, -5} {
		h.Observe(v)
	}
	if got := reg.Counter("msgs").Value(); got != 4 {
		t.Errorf("counter = %d", got)
	}
	if got := reg.Gauge("depth").Value(); got != 5 {
		t.Errorf("gauge = %d", got)
	}
	snap := reg.Snapshot()
	hs := snap.Histograms["bytes"]
	if hs.Count != 5 || hs.Sum != 1001 || hs.Min != -5 || hs.Max != 1000 {
		t.Errorf("histogram snapshot %+v", hs)
	}
	if hs.Mean != 1001.0/5 {
		t.Errorf("mean = %g", hs.Mean)
	}
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if round.Counters["msgs"] != 4 || round.Histograms["bytes"].Count != 5 {
		t.Errorf("round-tripped snapshot %+v", round)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{-1, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 20, 20}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if BucketBound(0) != 1 || BucketBound(3) != 8 || BucketBound(63) != math.MaxInt64 {
		t.Errorf("bucket bounds: %d %d %d", BucketBound(0), BucketBound(3), BucketBound(63))
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("c").Inc()
				reg.Histogram("h").Observe(int64(j))
				reg.Gauge("g").Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := reg.Histogram("h").Snapshot(); got.Count != 8000 || got.Min != 0 || got.Max != 999 {
		t.Errorf("histogram = %+v", got)
	}
}

func TestPhaseHistogramFeed(t *testing.T) {
	o := NewObserver(1, 16)
	o.Timeline.SetPhaseNames([]string{"compute", "shift"})
	tr := o.Timeline.Rank(0)
	tr.Phase(0)
	tr.Phase(1)
	tr.Close()
	snap := o.Metrics.Snapshot()
	if snap.Histograms["phase.compute.span_ns"].Count != 1 {
		t.Errorf("compute span histogram: %+v", snap.Histograms)
	}
	if snap.Histograms["phase.shift.span_ns"].Count != 1 {
		t.Errorf("shift span histogram: %+v", snap.Histograms)
	}
}

func TestPhaseTotals(t *testing.T) {
	tl := NewTimeline(2, 16)
	tl.SetPhaseNames([]string{"compute"})
	for r := 0; r < 2; r++ {
		tr := tl.Rank(r)
		tr.Phase(0)
		tr.Close()
	}
	totals := tl.PhaseTotals()
	if _, ok := totals["compute"]; !ok || len(totals) != 1 {
		t.Errorf("totals = %v", totals)
	}
}

// TestMatrixAddCells: adding cells is cell-wise addition that keeps the
// ranks' totals in step, and drops what falls outside the matrix.
func TestMatrixAddCells(t *testing.T) {
	m := NewCommMatrix(2, 3)
	m.AddCells([]MatrixCell{{Phase: 1, Src: 0, Dst: 2, SentMsgs: 1, SentBytes: 100}})
	m.AddCells([]MatrixCell{
		{Phase: 1, Src: 0, Dst: 2, SentMsgs: 2, SentBytes: 50, RecvMsgs: 3, RecvBytes: 150},
		{Phase: 0, Src: 2, Dst: 1, RecvMsgs: 1, RecvBytes: 8},
		{Phase: 2, Src: 0, Dst: 0, SentMsgs: 9}, // no such phase
		{Phase: 0, Src: 3, Dst: 0, SentMsgs: 9}, // no such rank
	})
	snap := m.Snapshot(nil)
	if len(snap.Phases) != 2 || snap.Phases[1].SentMsgs[0][2] != 3 || snap.Phases[1].SentBytes[0][2] != 150 ||
		snap.Phases[1].RecvMsgs[0][2] != 3 || snap.Phases[1].RecvBytes[0][2] != 150 || snap.Phases[0].RecvBytes[2][1] != 8 {
		t.Errorf("cells after AddCells: %+v", snap)
	}
	if s, _, r, rb := m.RankTotals(1, 0); s != 0 || r != 1 || rb != 8 {
		t.Errorf("rank 1 phase 0 totals sent %d recv %d/%d, want 0 and 1/8", s, r, rb)
	}
	if s, sb, r, rb := m.RankTotals(0, 1); s != 3 || sb != 150 || r != 0 || rb != 0 {
		t.Errorf("rank 0 phase 1 totals %d/%d %d/%d, want 3/150 0/0", s, sb, r, rb)
	}
	if s, _, r, rb := m.RankTotals(2, 1); s != 0 || r != 3 || rb != 150 {
		t.Errorf("rank 2 phase 1 totals sent %d recv %d/%d, want 0 and 3/150", s, r, rb)
	}
	var none *CommMatrix
	none.AddCells([]MatrixCell{{SentMsgs: 1}}) // nil-safe
}
