package core

import (
	"repro/internal/bounds"
	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// This file wires the paper's communication lower bounds (internal/
// bounds) into the live metrics of an observed run: every timestep, the
// gauges comm.s.measured / comm.w.measured track the worst rank's
// cumulative communication so far, next to comm.s.lowerbound /
// comm.w.lowerbound scaled to the steps completed — so /metrics shows
// "% of communication-optimal" while the run is still in flight, and
// the final report footer prints the same ratio from the authoritative
// trace accounting.

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

// stepProbe publishes one rank's live bounds-versus-measured gauges.
// Each rank holds its own probe (the underlying gauges are shared and
// atomic); stampStep is called once per timestep after the step's
// communication is accounted. All handles are nil — and every call a
// no-op — when the run is not observed.
type stepProbe struct {
	st           *trace.Stats
	sMeas, wMeas *obs.Gauge
	sLow, wLow   *obs.Gauge
	cur          *obs.Gauge
	perS, perW   float64 // per-step lower bounds
	root         bool
	steps        int64
}

// newStepProbe builds a probe for the calling rank with the given
// per-step lower bounds, or nil when the run is unobserved. impl is the
// force-kernel implementation the run's loop executes.
func newStepProbe(world *comm.Comm, impl string, perS, perW float64) *stepProbe {
	mx := world.Metrics()
	if mx == nil {
		return nil
	}
	if world.Rank() == 0 {
		// Which force kernel the run's compute times come from: 0 for
		// the Go loops, 1 for the AVX2 sweeps, 2 for those with the
		// pipelined open sweep (phys.Kernel.Impl).
		mx.Gauge("compute.kernel_avx2").Set(map[string]int64{"avx2": 1, "avx512vl": 2}[impl])
	}
	return &stepProbe{
		st:    world.Stats(),
		sMeas: mx.Gauge("comm.s.measured"),
		wMeas: mx.Gauge("comm.w.measured"),
		sLow:  mx.Gauge("comm.s.lowerbound"),
		wLow:  mx.Gauge("comm.w.lowerbound"),
		cur:   mx.Gauge("step.current"),
		perS:  perS,
		perW:  perW,
		root:  world.Rank() == 0,
	}
}

// stampStep publishes the rank's cumulative communication totals over
// the comm phases (CAS-max across ranks, approximating the critical
// path live) and, on rank 0, advances the step gauge and the
// steps-scaled lower bounds.
func (p *stepProbe) stampStep() {
	if p == nil {
		return
	}
	var s, w int64
	for _, ph := range trace.CommPhases() {
		s += p.st.ByPhase[ph].Events()
		w += p.st.ByPhase[ph].Volume()
	}
	p.sMeas.SetMax(s)
	p.wMeas.SetMax(w)
	if p.root {
		p.steps++
		p.cur.Set(p.steps)
		p.sLow.Set(int64(p.perS * float64(p.steps)))
		p.wLow.Set(int64(p.perW * float64(p.steps)))
	}
}
