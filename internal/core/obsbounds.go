package core

import (
	"time"

	"repro/internal/bounds"
	"repro/internal/obs"
	"repro/internal/obs/record"
	"repro/internal/phys"
	"repro/internal/trace"
)

// This file wires an observed run's live numbers: the gauges
// comm.s.measured / comm.w.measured next to comm.s.lowerbound /
// comm.w.lowerbound (the paper's communication lower bounds, internal/
// bounds, scaled to the steps done), step.current, and the flight
// recorder's per-step samples (internal/obs/record). All of them are
// computed from observer state only, cumulative over the observer's
// life: S, W and the compute imbalance by trace.Measure from the comm
// matrix's per-rank totals — the definitions trace.Report uses — and
// the bounds from the steps step.count has seen. So /metrics shows "%
// of communication-optimal" while the run is in flight, and once it has
// joined the gauges and the recording's last sample equal the report of
// one run of all the observer's steps.

// directBounds returns the per-step Equation 2 lower bounds for an
// all-pairs configuration: S in message events and W in bytes (the
// bound's particle words converted at phys.WireSize). The measured S
// counts both endpoints of each link event, so ratios against this
// bound are meaningful within the same factor of two the Report.S
// documentation notes.
func directBounds(n int, pr Params) (s, w float64) {
	m := bounds.MemoryPerRank(n, pr.P, pr.C)
	return bounds.DirectLatency(n, pr.P, m),
		bounds.DirectBandwidth(n, pr.P, m) * phys.WireSize
}

// cutoffBounds returns the per-step Equation 3 lower bounds for a
// distance-limited configuration, instantiating k as the expected
// neighbor count of a uniform distribution under the law's cutoff.
// Falls back to the direct bounds when the law has no cutoff.
func cutoffBounds(n int, pr Params) (s, w float64) {
	k := bounds.UniformNeighbors(n, 2, pr.Law.Cutoff, pr.Box.L)
	if k <= 0 {
		return directBounds(n, pr)
	}
	m := bounds.MemoryPerRank(n, pr.P, pr.C)
	return bounds.CutoffLatency(n, pr.P, k, m),
		bounds.CutoffBandwidth(n, pr.P, k, m) * phys.WireSize
}

// probe is one observed Advance's publisher. World rank 0 calls
// stampStep after each step, and the driver calls finish once the run
// has joined; both publish through the one function, publish. Nil —
// and every call a no-op — when the run is unobserved or this process
// does not host rank 0 (a follower of a multi-process run, whose
// traffic reaches proc 0's matrix only at the join).
type probe struct {
	o            *obs.Observer
	rec          *record.Recorder // nil unless recorded
	sMeas, wMeas *obs.Gauge
	sLow, wLow   *obs.Gauge
	cur          *obs.Gauge
	seen         *obs.Counter   // step.count: the steps the observer has seen
	worker       *obs.Histogram // step.worker_compute_ns
	perS, perW   float64        // per-step lower bounds
	prevNs       [record.MaxPhases]int64
	step, last   int
	// held is the last step's sample, held back for finish: its
	// traffic is complete only after every rank has joined.
	held record.Sample
}

// newProbe opens an Advance of steps timesteps on the observer (and on
// the recorder, when the run is recorded). impl is the force-kernel
// implementation the run's loop executes; perS and perW are the
// per-step lower bounds.
func newProbe(pr Params, impl string, perS, perW float64, steps int) *probe {
	o := pr.Options.Observe
	if o == nil || o.Metrics == nil || pr.Proc != nil && pr.Proc.ID() != 0 {
		return nil
	}
	mx := o.Metrics
	// Which force kernel the run's compute times come from: 0 for the
	// Go loops, 1 for the AVX2 sweeps, 2 for those with the pipelined
	// open sweep (phys.Kernel.Impl).
	mx.Gauge("compute.kernel_avx2").Set(map[string]int64{"avx2": 1, "avx512vl": 2}[impl])
	p := &probe{
		o:      o,
		sMeas:  mx.Gauge("comm.s.measured"),
		wMeas:  mx.Gauge("comm.w.measured"),
		sLow:   mx.Gauge("comm.s.lowerbound"),
		wLow:   mx.Gauge("comm.w.lowerbound"),
		cur:    mx.Gauge("step.current"),
		seen:   mx.Counter("step.count"),
		worker: mx.Histogram("step.worker_compute_ns"),
		perS:   perS,
		perW:   perW,
		last:   steps,
	}
	if pr.Record != nil && steps > 0 {
		p.rec = pr.Record
		p.rec.RunBegin()
	}
	return p
}

// stampStep takes one step's sample on rank 0: its wall time and rank
// 0's per-phase wall deltas from st, then everything publish computes.
// Allocation-free (the Sample lives on the stack; the Recorder copies it
// into the ring). Call after step.count and the step's histograms are
// updated. The last step's sample is held for finish.
func (p *probe) stampStep(st *trace.Stats, wall time.Duration) {
	if p == nil {
		return
	}
	var s record.Sample
	s.WallNs = wall.Nanoseconds()
	for ph := 0; ph < len(st.ByPhase) && ph < record.MaxPhases; ph++ {
		ns := int64(st.ByPhase[ph].Time)
		s.PhaseNs[ph] = ns - p.prevNs[ph]
		p.prevNs[ph] = ns
	}
	p.step++
	if p.step == p.last {
		p.held = s
		return
	}
	p.publish(&s)
	p.rec.RecordCumulative(s)
}

// finish publishes once more after comm.Run has joined every rank and
// merged every process's traffic, and closes the run on the recorder
// with the held sample when the run stamped its last step (a run of no
// steps has no recorder). Call on success and error paths alike.
func (p *probe) finish() {
	if p == nil {
		return
	}
	p.publish(&p.held)
	var final *record.Sample
	if p.step == p.last { // else the run failed before its last step
		final = &p.held
	}
	p.rec.RunEnd(final)
}

// publish computes S, W and the compute imbalance of what the matrix
// has counted (trace.Measure) and sets the gauges from them and from
// the steps the observer has seen, then fills s with those numbers, the
// matrix's cumulative per-phase traffic (the Recorder turns it into
// per-step deltas), the worker histogram's imbalance and the timeline's
// drops.
func (p *probe) publish(s *record.Sample) {
	rep := trace.Measure(p.o.Matrix())
	seen := p.seen.Value()
	s.SMeasured, s.WMeasured = rep.S(), rep.W()
	s.SLowerBound = int64(p.perS * float64(seen))
	s.WLowerBound = int64(p.perW * float64(seen))
	p.sMeas.Set(s.SMeasured)
	p.wMeas.Set(s.WMeasured)
	p.sLow.Set(s.SLowerBound)
	p.wLow.Set(s.WLowerBound)
	p.cur.Set(seen)
	for ph := 0; ph < len(rep.Sum) && ph < record.MaxPhases; ph++ {
		t := rep.Sum[ph]
		s.SentMsgs[ph], s.SentBytes[ph], s.RecvMsgs[ph], s.RecvBytes[ph] = t.Messages, t.Bytes, t.RecvMessages, t.RecvBytes
	}
	s.ComputeImbalance = rep.ComputeImbalance()
	s.WorkerImbalance = p.worker.MaxOverMean()
	s.TimelineDropped = p.o.Timeline.Dropped()
}
