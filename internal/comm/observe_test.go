package comm

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// TestObservedRunRecordsEvents checks the full observation path: a Run
// with an Observer attached records phase spans, sends, receives and
// collective events per rank, and the metrics registry sees the same
// message counts as the trace accounting.
func TestObservedRunRecordsEvents(t *testing.T) {
	const p = 4
	o := obs.NewObserver(p, 1024)
	rep, err := Run(p, Options{Observe: o}, func(c *Comm) error {
		c.Stats().StartTiming()
		defer c.Stats().StopTiming()
		c.Stats().SetPhase(trace.Broadcast)
		var lead []phys.Particle
		if c.Rank() == 0 {
			lead = testParticles(3, 1)
		}
		data := c.BcastParticles(0, lead, nil)
		c.Stats().SetPhase(trace.Shift)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		c.SendrecvParticles(next, data, prev, 5)
		c.Stats().SetPhase(trace.Reduce)
		c.ReduceF64sInPlace(0, []float64{1, 2})
		c.Barrier()
		c.Stats().SetPhase(trace.Other)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	kinds := map[obs.Kind]int{}
	for r := 0; r < p; r++ {
		evs := o.Timeline.Events(r)
		if len(evs) == 0 {
			t.Fatalf("rank %d recorded no events", r)
		}
		for _, ev := range evs {
			kinds[ev.Kind]++
		}
	}
	for _, k := range []obs.Kind{obs.KindPhase, obs.KindSend, obs.KindRecv, obs.KindBcast, obs.KindReduce, obs.KindBarrier} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded (kinds: %v)", k, kinds)
		}
	}

	// Metrics and trace accounting must agree on global message counts.
	snap := o.Metrics.Snapshot()
	var sumSent, sumBytes int64
	for _, ph := range trace.Phases() {
		sumSent += rep.Sum[ph].Messages
		sumBytes += rep.Sum[ph].Bytes
	}
	if got := snap.Counters["comm.sent.msgs"]; got != sumSent {
		t.Errorf("metrics sent msgs = %d, trace = %d", got, sumSent)
	}
	if got := snap.Counters["comm.sent.bytes"]; got != sumBytes {
		t.Errorf("metrics sent bytes = %d, trace = %d", got, sumBytes)
	}
	if got := snap.Counters["comm.recv.msgs"]; got != sumSent {
		t.Errorf("metrics recv msgs = %d, want %d (every send is received)", got, sumSent)
	}
	if snap.Histograms["comm.msg.bytes"].Count != sumSent {
		t.Errorf("msg size histogram count %d, want %d", snap.Histograms["comm.msg.bytes"].Count, sumSent)
	}
}

// TestTimelinePhaseTotalsMatchReport is the acceptance check that the
// timeline's per-phase span totals agree with trace.Report's wall-clock
// phase accounting: both are charged from the same clock reading at
// each SetPhase boundary, so for phases that begin and end at one the
// critical-path (max over ranks) totals are equal to the nanosecond.
func TestTimelinePhaseTotalsMatchReport(t *testing.T) {
	const p = 8
	o := obs.NewObserver(p, 1<<14)
	rep, err := Run(p, Options{Observe: o}, func(c *Comm) error {
		c.Stats().StartTiming()
		defer c.Stats().StopTiming()
		for step := 0; step < 3; step++ {
			c.Stats().SetPhase(trace.Broadcast)
			var lead []phys.Particle
			if c.Rank() == 0 {
				lead = make([]phys.Particle, 64)
			}
			payload := c.BcastParticles(0, lead, nil)
			c.Stats().SetPhase(trace.Compute)
			busySpin(2 * time.Millisecond)
			c.Stats().SetPhase(trace.Shift)
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() - 1 + c.Size()) % c.Size()
			c.SendrecvParticles(next, payload, prev, step)
			c.Stats().SetPhase(trace.Reduce)
			c.ReduceF64sInPlace(0, []float64{float64(step)})
			c.Stats().SetPhase(trace.Other)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	totals := o.Timeline.PhaseTotals()
	for _, ph := range []trace.Phase{trace.Broadcast, trace.Compute, trace.Shift, trace.Reduce} {
		reportNs := int64(rep.CriticalPath[ph].Time)
		timelineNs := totals[ph.String()]
		if reportNs == 0 {
			t.Errorf("phase %v: report recorded no time", ph)
			continue
		}
		if timelineNs != reportNs {
			t.Errorf("phase %v: timeline %v vs report %v", ph, time.Duration(timelineNs), time.Duration(reportNs))
		}
	}
}

// busySpin burns CPU for d without sleeping, so the time is charged to
// the caller's phase the way force computation would be.
func busySpin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// TestUnobservedRunUnchanged pins the disabled path: no observer, no
// events, and the runtime behaves exactly as before.
func TestUnobservedRunUnchanged(t *testing.T) {
	rep, err := Run(2, Options{}, func(c *Comm) error {
		if c.tr != nil {
			return nil // tracer must be nil; checked below via panic-free no-ops
		}
		c.tr.Send(0, 0, 0, 0) // nil tracer: must be a no-op
		c.Metrics().Counter("x").Inc()
		c.Stats().SetPhase(trace.Shift)
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("x"))
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sum[trace.Shift].Messages != 1 {
		t.Errorf("unobserved accounting broken: %+v", rep.Sum[trace.Shift])
	}
}
