package record

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// stamp records one cumulative reading with distinguishable per-phase
// values derived from step (phase ph gets base*(ph+1) in each column).
func stamp(r *Recorder, cum int64, phases int) {
	var s Sample
	s.WallNs = 1000 + cum
	for ph := 0; ph < phases; ph++ {
		k := cum * int64(ph+1)
		s.PhaseNs[ph] = k
		s.SentMsgs[ph] = k
		s.SentBytes[ph] = 10 * k
		s.RecvMsgs[ph] = k
		s.RecvBytes[ph] = 10 * k
	}
	r.RecordCumulative(s)
}

func TestDeltaConversion(t *testing.T) {
	r := New(Meta{Phases: []string{"a", "b"}}, 8)
	r.RunBegin()
	stamp(r, 5, 2)  // cumulative 5 → delta 5
	stamp(r, 9, 2)  // cumulative 9 → delta 4
	stamp(r, 9, 2)  // idle step → delta 0
	stamp(r, 20, 2) // → delta 11
	r.RunEnd(nil)

	got := r.Window(0, 4)
	if len(got) != 4 {
		t.Fatalf("Window(0,4) returned %d samples, want 4", len(got))
	}
	wantDeltas := []int64{5, 4, 0, 11}
	var sum int64
	for i, s := range got {
		if s.Step != int64(i) {
			t.Errorf("sample %d has Step %d", i, s.Step)
		}
		if s.SentMsgs[0] != wantDeltas[i] {
			t.Errorf("step %d phase 0 sent msgs delta = %d, want %d", i, s.SentMsgs[0], wantDeltas[i])
		}
		if s.SentMsgs[1] != 2*wantDeltas[i] {
			t.Errorf("step %d phase 1 sent msgs delta = %d, want %d", i, s.SentMsgs[1], 2*wantDeltas[i])
		}
		if s.SentBytes[0] != 10*wantDeltas[i] || s.RecvMsgs[0] != wantDeltas[i] || s.RecvBytes[0] != 10*wantDeltas[i] {
			t.Errorf("step %d columns disagree: %+v", i, s)
		}
		sum += s.SentMsgs[0]
	}
	// Telescoping: deltas must sum back to the final cumulative total.
	if sum != 20 {
		t.Errorf("deltas sum to %d, want the final cumulative 20", sum)
	}
	if r.Total() != 4 {
		t.Errorf("Total = %d, want 4", r.Total())
	}
	if r.RingDropped() != 0 {
		t.Errorf("RingDropped = %d, want 0", r.RingDropped())
	}
}

func TestDeltasPersistAcrossRuns(t *testing.T) {
	// The comm matrix accumulates across chunked Run calls, so the
	// recorder's prev totals must survive RunEnd/RunBegin.
	r := New(Meta{Phases: []string{"a"}}, 8)
	r.RunBegin()
	stamp(r, 7, 1)
	r.RunEnd(nil)
	r.RunBegin()
	stamp(r, 10, 1) // cumulative 10 → delta 3, not 10
	r.RunEnd(nil)

	got := r.Window(0, 2)
	if len(got) != 2 || got[1].SentMsgs[0] != 3 {
		t.Fatalf("second-run delta = %+v, want 3", got)
	}
	if got[1].Step != 1 {
		t.Errorf("step numbering not monotone across runs: %d", got[1].Step)
	}
}

func TestRingWrapWindowLast(t *testing.T) {
	r := New(Meta{Phases: []string{"a"}}, 4)
	r.RunBegin()
	for i := 1; i <= 10; i++ {
		stamp(r, int64(i), 1)
	}
	r.RunEnd(nil)

	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	if r.RingDropped() != 6 {
		t.Fatalf("RingDropped = %d, want 6", r.RingDropped())
	}
	// Only steps 6..9 remain; a window reaching earlier clamps.
	got := r.Window(0, 10)
	if len(got) != 4 {
		t.Fatalf("Window(0,10) returned %d samples, want 4", len(got))
	}
	for i, s := range got {
		if s.Step != int64(6+i) {
			t.Errorf("wrapped window sample %d has Step %d, want %d", i, s.Step, 6+i)
		}
		if s.SentMsgs[0] != 1 {
			t.Errorf("step %d delta = %d, want 1", s.Step, s.SentMsgs[0])
		}
	}
	last := r.Last(2)
	if len(last) != 2 || last[0].Step != 8 || last[1].Step != 9 {
		t.Fatalf("Last(2) = %+v, want steps 8,9", last)
	}
	if got := r.Window(3, 2); got != nil {
		t.Errorf("inverted window returned %d samples", len(got))
	}
	if got := r.Last(100); len(got) != 4 {
		t.Errorf("Last(100) returned %d samples, want the 4 retained", len(got))
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.RunBegin()
	r.RecordCumulative(Sample{})
	r.RunEnd(nil)
	if r.Total() != 0 || r.RingDropped() != 0 || r.NumPhases() != 0 {
		t.Error("nil recorder reports nonzero state")
	}
	if got := r.Window(0, 10); got != nil {
		t.Error("nil recorder Window returned samples")
	}
	ch, cancel := r.Subscribe(4)
	cancel()
	if _, ok := <-ch; ok {
		t.Error("nil recorder subscription channel not closed")
	}
	if err := r.CloseStream(); err != nil {
		t.Errorf("nil CloseStream: %v", err)
	}
	if err := r.StreamTo(&bytes.Buffer{}); err == nil {
		t.Error("nil StreamTo did not error")
	}
}

func TestRunEndFinalSample(t *testing.T) {
	// The driver holds the last step back and passes it to RunEnd with
	// re-read totals; the recorded sequence must still telescope.
	r := New(Meta{Phases: []string{"a"}}, 8)
	r.RunBegin()
	stamp(r, 4, 1)
	var final Sample
	final.SentMsgs[0] = 9 // re-read cumulative total after all ranks joined
	final.WallNs = 123
	r.RunEnd(&final)

	got := r.Window(0, 2)
	if len(got) != 2 {
		t.Fatalf("got %d samples, want 2", len(got))
	}
	if got[1].SentMsgs[0] != 5 {
		t.Errorf("final delta = %d, want 5", got[1].SentMsgs[0])
	}
	if got[1].HeapBytes <= 0 || got[1].Goroutines <= 0 {
		t.Errorf("final sample missing runtime health: %+v", got[1])
	}
}

func TestSubscribeDropsWhenFull(t *testing.T) {
	r := New(Meta{Phases: []string{"a"}}, 8)
	ch, cancel := r.Subscribe(2)
	defer cancel()
	r.RunBegin()
	for i := 1; i <= 5; i++ {
		stamp(r, int64(i), 1)
	}
	r.RunEnd(nil)
	// Buffer of 2: the first two samples are queued, the rest dropped.
	var got []Sample
	for len(ch) > 0 {
		got = append(got, <-ch)
	}
	if len(got) != 2 || got[0].Step != 0 || got[1].Step != 1 {
		t.Fatalf("subscriber saw %+v, want steps 0,1", got)
	}
	cancel()
	// Post-cancel records must not reach (or block on) the channel.
	r.RunBegin()
	stamp(r, 6, 1)
	r.RunEnd(nil)
	if len(ch) != 0 {
		t.Error("cancelled subscriber still receives samples")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	meta := Meta{Algorithm: "allpairs", N: 64, P: 4, C: 2, Dim: 2, Phases: []string{"compute", "broadcast"}}
	var buf bytes.Buffer
	r := New(meta, 4) // capacity below the sample count: stream keeps all
	if err := r.StreamTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.StreamTo(&bytes.Buffer{}); err == nil {
		t.Fatal("second StreamTo did not error")
	}
	r.RunBegin()
	for i := 1; i <= 6; i++ {
		stamp(r, int64(3*i), 2)
	}
	r.RunEnd(nil)
	if err := r.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if err := r.CloseStream(); err != nil {
		t.Fatalf("idempotent CloseStream: %v", err)
	}

	gotMeta, samples, err := ReadRecording(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := meta
	want.Kind, want.Version = DocKind, 1
	if !reflect.DeepEqual(gotMeta, want) {
		t.Errorf("header = %+v, want %+v", gotMeta, want)
	}
	if len(samples) != 6 {
		t.Fatalf("recording has %d samples, want 6 (ring capacity must not limit the stream)", len(samples))
	}
	var sum int64
	for i, s := range samples {
		if s.Step != int64(i) {
			t.Errorf("sample %d has Step %d", i, s.Step)
		}
		sum += s.SentMsgs[0]
	}
	if sum != 18 {
		t.Errorf("streamed deltas sum to %d, want 18", sum)
	}
}

func TestOpenSinkGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"run.jsonl", "run.jsonl.gz"} {
		path := filepath.Join(dir, name)
		w, err := OpenSink(path)
		if err != nil {
			t.Fatal(err)
		}
		r := New(Meta{Algorithm: "allpairs", Phases: []string{"a"}}, 0)
		if err := r.StreamTo(w); err != nil {
			t.Fatal(err)
		}
		r.RunBegin()
		stamp(r, 2, 1)
		stamp(r, 5, 1)
		r.RunEnd(nil)
		if err := r.CloseStream(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var in io.Reader = bytes.NewReader(raw)
		if name == "run.jsonl.gz" {
			gz, err := gzip.NewReader(in)
			if err != nil {
				t.Fatalf("%s is not gzip: %v", name, err)
			}
			in = gz
		}
		meta, samples, err := ReadRecording(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if meta.Algorithm != "allpairs" || len(samples) != 2 || samples[1].SentMsgs[0] != 3 {
			t.Errorf("%s round trip: meta=%+v samples=%+v", name, meta, samples)
		}
	}
}

func TestReadRecordingRejectsForeign(t *testing.T) {
	if _, _, err := ReadRecording(bytes.NewReader([]byte(`{"kind":"canbody-bench"}` + "\n"))); err == nil {
		t.Error("foreign kind accepted")
	}
	if _, _, err := ReadRecording(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestViewRoundTrip(t *testing.T) {
	var s Sample
	s.Step = 3
	s.WallNs = 42
	for i := 0; i < MaxPhases; i++ {
		s.PhaseNs[i] = int64(i)
		s.SentMsgs[i] = int64(2 * i)
	}
	s.SMeasured, s.WMeasured = 7, 8
	s.ComputeImbalance = 1.5

	v := s.View(3)
	if len(v.PhaseNs) != 3 || len(v.SentMsgs) != 3 {
		t.Fatalf("View(3) kept %d phases", len(v.PhaseNs))
	}
	back := v.Sample()
	if back.Step != 3 || back.WallNs != 42 || back.SMeasured != 7 || back.ComputeImbalance != 1.5 {
		t.Errorf("scalar round trip lost data: %+v", back)
	}
	for i := 0; i < 3; i++ {
		if back.PhaseNs[i] != int64(i) || back.SentMsgs[i] != int64(2*i) {
			t.Errorf("phase %d lost: %+v", i, back)
		}
	}
	for i := 3; i < MaxPhases; i++ {
		if back.PhaseNs[i] != 0 {
			t.Errorf("trimmed phase %d nonzero after round trip", i)
		}
	}
}
