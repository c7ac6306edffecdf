package core

import (
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/obs/record"
	"repro/internal/trace"
)

// This file wires the step-series flight recorder (internal/obs/record)
// into the rank harness (Session.Advance). The shape mirrors stepProbe:
// the harness builds a runRecorder before the world runs, world rank 0
// holds the only stepSampler and stamps it once per step from the
// observed block, and the harness calls finish once the run has joined.
//
// Per-phase communication is sampled as the matrix's CUMULATIVE phase
// totals and converted to per-step deltas inside the Recorder. Rank 0
// reaches the end of a step before laggard ranks have stamped all their
// traffic, so mid-run attribution of a message to a step is approximate
// — but the deltas telescope, and the final sample is held back by the
// sampler and fixed up in finish after every rank has joined, which is
// what makes a recording's per-phase byte columns sum bitwise to the
// end-of-run trace.Report.

// runRecorder couples one Advance to the simulation's Recorder. Nil
// (and a no-op everywhere) unless the run is both observed and recorded
// and has steps to record.
type runRecorder struct {
	rec         *record.Recorder
	o           *obs.Observer
	pending     record.Sample
	havePending bool
}

// newRunRecorder opens an Advance of steps timesteps on the recorder
// (ownership release + runtime-health sampling) and returns the
// driver-side handle.
func newRunRecorder(pr Params, steps int) *runRecorder {
	if pr.Record == nil || pr.Options.Observe == nil || steps == 0 {
		return nil
	}
	rr := &runRecorder{rec: pr.Record, o: pr.Options.Observe}
	rr.rec.RunBegin()
	return rr
}

// stepSampler is rank 0's per-step sampling state. All other ranks (and
// unrecorded runs) hold nil, making stampStep a no-op.
type stepSampler struct {
	rr              *runRecorder
	st              *trace.Stats
	matrix          *obs.CommMatrix
	tl              *obs.Timeline
	sMeas, wMeas    *obs.Gauge
	sLow, wLow      *obs.Gauge
	compute, worker *obs.Histogram
	prevNs          [record.MaxPhases]int64
	step, last      int
}

// sampler builds the per-step sampler for the calling rank: non-nil
// only on world rank 0 of a recorded run. Must be called after the
// rank's stepProbe exists so the gauges it reads are registered.
func (rr *runRecorder) sampler(world *comm.Comm, steps int) *stepSampler {
	if rr == nil || world.Rank() != 0 {
		return nil
	}
	mx := world.Metrics()
	return &stepSampler{
		rr:      rr,
		st:      world.Stats(),
		matrix:  rr.o.Matrix(),
		tl:      rr.o.Timeline,
		sMeas:   mx.Gauge("comm.s.measured"),
		wMeas:   mx.Gauge("comm.w.measured"),
		sLow:    mx.Gauge("comm.s.lowerbound"),
		wLow:    mx.Gauge("comm.w.lowerbound"),
		compute: mx.Histogram("step.compute_ns"),
		worker:  mx.Histogram("step.worker_compute_ns"),
		last:    steps,
	}
}

// stampStep captures one step's sample: rank 0's per-phase wall
// deltas, the matrix's cumulative per-phase traffic, the live
// bounds-versus-measured gauges, the imbalance proxies, timeline drops.
// Allocation-free (the Sample lives on the stack; the Recorder copies
// it into the ring). Call after probe.stampStep and the step's
// histogram observes so every read is fresh. The final step's sample is
// stashed for finish instead of recorded — its comm totals are not yet
// complete.
func (sp *stepSampler) stampStep(wall time.Duration) {
	if sp == nil {
		return
	}
	var s record.Sample
	s.WallNs = wall.Nanoseconds()
	for ph := 0; ph < len(sp.st.ByPhase) && ph < record.MaxPhases; ph++ {
		ns := int64(sp.st.ByPhase[ph].Time)
		s.PhaseNs[ph] = ns - sp.prevNs[ph]
		sp.prevNs[ph] = ns
		s.SentMsgs[ph], s.SentBytes[ph], s.RecvMsgs[ph], s.RecvBytes[ph] = sp.matrix.PhaseTotals(ph)
	}
	s.SMeasured = sp.sMeas.Value()
	s.WMeasured = sp.wMeas.Value()
	s.SLowerBound = sp.sLow.Value()
	s.WLowerBound = sp.wLow.Value()
	s.ComputeImbalance = sp.compute.MaxOverMean()
	s.WorkerImbalance = sp.worker.MaxOverMean()
	s.TimelineDropped = sp.tl.Dropped()
	sp.step++
	if sp.step == sp.last {
		sp.rr.pending = s
		sp.rr.havePending = true
		return
	}
	sp.rr.rec.RecordCumulative(s)
}

// finish closes the run on the recorder. When a final sample is
// pending, its communication totals and summary metrics are re-read
// now — after comm.Run has joined every rank, so the matrix and report
// are complete — before the Recorder emits it. Call on success and
// error paths alike; safe on a nil report.
func (rr *runRecorder) finish(rep *trace.Report) {
	if rr == nil {
		return
	}
	if !rr.havePending {
		rr.rec.RunEnd(nil)
		return
	}
	s := &rr.pending
	m := rr.o.Matrix()
	for ph := 0; ph < m.Phases() && ph < record.MaxPhases; ph++ {
		s.SentMsgs[ph], s.SentBytes[ph], s.RecvMsgs[ph], s.RecvBytes[ph] = m.PhaseTotals(ph)
	}
	if rep != nil {
		s.SMeasured = rep.S()
		s.WMeasured = rep.W()
		s.SLowerBound = int64(rep.SLowerBound)
		s.WLowerBound = int64(rep.WLowerBound)
		s.ComputeImbalance = rep.ComputeImbalance()
		s.WorkerImbalance = rep.WorkerImbalance()
		s.TimelineDropped = rep.TimelineDropped
	}
	rr.rec.RunEnd(s)
	rr.havePending = false
}
