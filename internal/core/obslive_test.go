package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// msgKey identifies one sequenced message end-to-end: both endpoints of
// a delivery must stamp the identical tuple.
type msgKey struct {
	src, dst int
	tag      int32
	seq      uint64
}

// TestFlowEventsMatch runs an observed 2-rank AllPairs step and checks
// message-flow causality: every recv event carries a sequence number,
// and each (src, dst, tag, seq) tuple seen at a receiver was stamped by
// exactly one send at the matching sender — the invariant that lets the
// Chrome exporter bind send→recv arrows.
func TestFlowEventsMatch(t *testing.T) {
	const p, c, n = 2, 1, 16
	pr := defaultParams(p, c)
	ob := obs.NewObserver(p, 0)
	pr.Options.Observe = ob
	ps := phys.InitUniform(n, pr.Box, 5)
	if _, _, err := advance(NewAllPairs, ps, pr, 1); err != nil {
		t.Fatal(err)
	}

	sends := map[msgKey]int{}
	var recvs []msgKey
	for r := 0; r < p; r++ {
		for _, ev := range ob.Timeline.Events(r) {
			switch ev.Kind {
			case obs.KindSend:
				if ev.Seq == 0 {
					t.Fatalf("rank %d send to %d tag %d has no sequence number", r, ev.Peer, ev.Tag)
				}
				sends[msgKey{r, int(ev.Peer), ev.Tag, ev.Seq}]++
			case obs.KindRecv:
				if ev.Seq == 0 {
					t.Fatalf("rank %d recv from %d tag %d has no sequence number", r, ev.Peer, ev.Tag)
				}
				recvs = append(recvs, msgKey{int(ev.Peer), r, ev.Tag, ev.Seq})
			}
		}
	}
	if len(recvs) == 0 {
		t.Fatal("observed run recorded no recv events")
	}
	for _, k := range recvs {
		if sends[k] != 1 {
			t.Errorf("recv (src=%d dst=%d tag=%d seq=%d) matches %d sends, want exactly 1",
				k.src, k.dst, k.tag, k.seq, sends[k])
		}
	}

	// The exported trace must carry the same pairing as flow events:
	// every "f" id has a matching "s" id.
	var buf bytes.Buffer
	if err := ob.Timeline.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
			ID  string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	opens := map[string]int{}
	finishes := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "msgflow" {
			continue
		}
		switch ev.Ph {
		case "s":
			opens[ev.ID]++
		case "f":
			finishes[ev.ID]++
		}
	}
	if len(finishes) == 0 {
		t.Fatal("exported trace has no flow-finish events")
	}
	for id, nf := range finishes {
		if opens[id] != 1 || nf != 1 {
			t.Errorf("flow id %s: %d opens, %d finishes, want 1/1", id, opens[id], nf)
		}
	}
}

// TestMatrixConservation checks the communication matrix conserves the
// trace accounting bitwise: per phase, the summed send cells equal the
// report's summed sent messages/bytes and the recv cells its received
// messages/bytes. Sends are stamped under the sender's phase and recvs
// under the receiver's, exactly as trace.Stats counts them, so equality
// is exact, not approximate.
func TestMatrixConservation(t *testing.T) {
	algos := []struct {
		name string
		run  func(pr Params, ps []phys.Particle) (*trace.Report, error)
	}{
		{"allpairs", func(pr Params, ps []phys.Particle) (*trace.Report, error) {
			_, rep, err := advance(NewAllPairs, ps, pr, 3)
			return rep, err
		}},
		{"cutoff", func(pr Params, ps []phys.Particle) (*trace.Report, error) {
			_, rep, err := advance(NewCutoff, ps, pr, 3)
			return rep, err
		}},
	}
	for _, alg := range algos {
		t.Run(alg.name, func(t *testing.T) {
			var pr Params
			var ps []phys.Particle
			var p int
			switch alg.name {
			case "cutoff":
				p = 8 // 1D cutoff needs enough teams for its window
				pr = cutoffParams(p, 2, 1, phys.Periodic)
				ps = phys.InitLattice(64, pr.Box, 9)
			default:
				p = 4
				pr = defaultParams(p, 2)
				ps = phys.InitUniform(64, pr.Box, 9)
			}
			ob := obs.NewObserver(p, 0)
			ob.EnsureMatrix(len(trace.PhaseNames()), p)
			pr.Options.Observe = ob
			rep, err := alg.run(pr, ps)
			if err != nil {
				t.Fatal(err)
			}

			snap := ob.Matrix().Snapshot(nil)
			if len(snap.Phases) == 0 {
				t.Fatal("matrix recorded no traffic")
			}
			sum2 := func(cells [][]int64) int64 {
				var total int64
				for _, row := range cells {
					for _, v := range row {
						total += v
					}
				}
				return total
			}
			covered := map[int]bool{}
			for _, phs := range snap.Phases {
				covered[phs.Phase] = true
				want := rep.Sum[trace.Phase(phs.Phase)]
				if got := sum2(phs.SentMsgs); got != want.Messages {
					t.Errorf("phase %d sent msgs: matrix %d, report %d", phs.Phase, got, want.Messages)
				}
				if got := sum2(phs.SentBytes); got != want.Bytes {
					t.Errorf("phase %d sent bytes: matrix %d, report %d", phs.Phase, got, want.Bytes)
				}
				if got := sum2(phs.RecvMsgs); got != want.RecvMessages {
					t.Errorf("phase %d recv msgs: matrix %d, report %d", phs.Phase, got, want.RecvMessages)
				}
				if got := sum2(phs.RecvBytes); got != want.RecvBytes {
					t.Errorf("phase %d recv bytes: matrix %d, report %d", phs.Phase, got, want.RecvBytes)
				}
			}
			// Phases the snapshot omitted must genuinely have no traffic.
			for _, ph := range trace.Phases() {
				if !covered[int(ph)] && rep.Sum[ph].Messages != 0 {
					t.Errorf("phase %v has %d messages but was omitted from the matrix", ph, rep.Sum[ph].Messages)
				}
			}
		})
	}
}

// TestDroppedWarning forces timeline-ring wraparound with a tiny
// capacity and checks the loss is surfaced everywhere: the report field,
// its footer warning and the timeline.dropped gauge.
func TestDroppedWarning(t *testing.T) {
	const p, c = 4, 2
	pr := defaultParams(p, c)
	ob := obs.NewObserver(p, 8) // 8-event rings: guaranteed wraparound
	pr.Options.Observe = ob
	ps := phys.InitUniform(64, pr.Box, 13)
	_, rep, err := advance(NewAllPairs, ps, pr, 5)
	if err != nil {
		t.Fatal(err)
	}
	dropped := ob.Timeline.Dropped()
	if dropped == 0 {
		t.Fatal("tiny ring did not wrap; test setup is wrong")
	}
	if rep.TimelineDropped != dropped {
		t.Errorf("Report.TimelineDropped = %d, timeline says %d", rep.TimelineDropped, dropped)
	}
	if s := rep.String(); !strings.Contains(s, "WARNING: timeline dropped") {
		t.Errorf("report footer missing dropped-events warning:\n%s", s)
	}
	if got := ob.Metrics.Snapshot().Gauges["timeline.dropped"]; got != dropped {
		t.Errorf("timeline.dropped gauge = %d, want %d", got, dropped)
	}

	// Control: a roomy ring must not warn.
	pr2 := defaultParams(p, c)
	ob2 := obs.NewObserver(p, 0)
	pr2.Options.Observe = ob2
	_, rep2, err := advance(NewAllPairs, phys.InitUniform(16, pr2.Box, 13), pr2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep2.String(), "WARNING: timeline dropped") {
		t.Error("default-capacity run spuriously warned about dropped events")
	}
}

// TestKernelImplAttribution checks that a run names the force-kernel
// implementation its compute phase executed — not what the host could
// have run — wherever a recorded number can end up: the report, its
// footer and, on an observed run, the compute.kernel_avx2 gauge. Only
// the repulsive law has vector sweeps, open or cut off, whichever loop
// calls them — the all-pairs loop under a cutoff law runs the cutoff
// sweep; a Lennard-Jones run is a Go loop on every host.
func TestKernelImplAttribution(t *testing.T) {
	host := phys.KernelImpl()
	if host != "avx2" && host != "avx512vl" && host != "portable" {
		t.Fatalf("phys.KernelImpl() = %q", host)
	}
	lj := phys.LJLaw(1e-3, 0.1)
	for _, tc := range []struct {
		name string
		want string
		run  func(pr Params) (*trace.Report, error)
		pr   Params
	}{
		{"allpairs", host, func(pr Params) (*trace.Report, error) {
			_, rep, err := advance(NewAllPairs, phys.InitUniform(32, pr.Box, 13), pr, 2)
			return rep, err
		}, defaultParams(4, 2)},
		{"allpairs/lj", "portable", func(pr Params) (*trace.Report, error) {
			pr.Law = lj
			_, rep, err := advance(NewAllPairs, phys.InitLattice(32, pr.Box, 13), pr, 2)
			return rep, err
		}, defaultParams(4, 2)},
		{"allpairs/cutoff", host, func(pr Params) (*trace.Report, error) {
			_, rep, err := advance(NewAllPairs, phys.InitUniform(32, pr.Box, 13), pr, 3)
			return rep, err
		}, cutoffParams(4, 2, 2, phys.Periodic)},
		{"allpairs/lj-cutoff", "portable", func(pr Params) (*trace.Report, error) {
			pr.Law = lj.WithCutoff(pr.Law.Cutoff)
			_, rep, err := advance(NewAllPairs, phys.InitLattice(32, pr.Box, 13), pr, 3)
			return rep, err
		}, cutoffParams(4, 2, 2, phys.Periodic)},
		{"cutoff", host, func(pr Params) (*trace.Report, error) {
			_, rep, err := advance(NewCutoff, phys.InitLattice(64, pr.Box, 13), pr, 3)
			return rep, err
		}, cutoffParams(8, 2, 1, phys.Periodic)},
		{"cutoff/2d", host, func(pr Params) (*trace.Report, error) {
			_, rep, err := advance(NewCutoff, phys.InitLattice(256, pr.Box, 13), pr, 3)
			return rep, err
		}, cutoffParams(16, 1, 2, phys.Reflective)},
		{"cutoff/lj", "portable", func(pr Params) (*trace.Report, error) {
			pr.Law = lj.WithCutoff(pr.Law.Cutoff)
			_, rep, err := advance(NewCutoff, phys.InitLattice(64, pr.Box, 13), pr, 3)
			return rep, err
		}, cutoffParams(8, 2, 1, phys.Periodic)},
	} {
		ob := obs.NewObserver(tc.pr.P, 0)
		tc.pr.Options.Observe = ob
		rep, err := tc.run(tc.pr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.KernelImpl != tc.want {
			t.Errorf("%s: report says kernel %q, want %q", tc.name, rep.KernelImpl, tc.want)
		}
		if s := rep.String(); !strings.Contains(s, "force kernel") || !strings.HasSuffix(strings.TrimRight(s, "\n"), tc.want) {
			t.Errorf("%s: report footer does not end with the force kernel line for %q:\n%s", tc.name, tc.want, s)
		}
		got, ok := ob.Metrics.Snapshot().Gauges["compute.kernel_avx2"]
		if want := map[string]int64{"avx512vl": 2, "avx2": 1, "portable": 0}[tc.want]; !ok || got != want {
			t.Errorf("%s: compute.kernel_avx2 gauge = %d (present %v), want %d", tc.name, got, ok, want)
		}
	}
}
