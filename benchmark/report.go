package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// Thresholds the workloads must meet to be the workloads they claim.
const (
	computeKernelShareMin = 0.7 // ap-compute: the kernel is most of the CPU
	latencyKernelShareMax = 0.4 // ap-latency: it is not
	cutoffAllocRatioMin   = 10  // cutoff-2d allocates this many times cutoff-small
	driftUnresolved       = 0.10
)

func perStep(total float64, steps int) float64 { return total / float64(steps) }

// paired returns, for every round both variants sampled, the relative
// difference (a − b) ÷ b of their step times.
func paired(a, b []sample) []float64 {
	base := make(map[int]int64, len(b))
	for _, s := range b {
		base[s.Round] = s.WallNs
	}
	var out []float64
	for _, s := range a {
		if w, ok := base[s.Round]; ok && w > 0 {
			out = append(out, float64(s.WallNs-w)/float64(w))
		}
	}
	return out
}

// stepP50 is the median step time in µs of a variant's samples.
func stepP50(samples []sample, batch int) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = perStep(float64(s.WallNs)/1e3, batch)
	}
	return median(xs)
}

// summarize turns a workload's samples, counts and probes into its
// metrics: the end-to-end ones in the untraced set, the per-layer ones
// in the traced set.
func (s *set) summarize(res *result) {
	w := res.workload
	k := w.batch
	plain := res.variantSamples("plain")
	if len(plain) == 0 {
		return // every round failed; the tally says why
	}
	col := func(f func(sample) float64) []float64 {
		xs := make([]float64, len(plain))
		for i, smp := range plain {
			xs[i] = f(smp)
		}
		return xs
	}
	stepUs := col(func(x sample) float64 { return perStep(float64(x.WallNs)/1e3, k) })
	step := median(stepUs)
	// Calibrated: each sample is expressed at the speed of the nominal
	// host before the median is taken.
	cpuCal := median(col(func(x sample) float64 { return perStep(float64(x.CPUNs)/1e3, k) / x.HostIndex }))

	v := res.metrics
	if !s.o.traced {
		v["step_us_p50"] = median(col(func(x sample) float64 { return perStep(float64(x.WallNs)/1e3, k) / x.HostIndex }))
		v["cpu_us_per_step"] = cpuCal
		v["alloc_kb_per_step"] = median(col(func(x sample) float64 { return perStep(float64(x.AllocBytes)/1024, k) }))
		v["comm_msgs_per_step"] = perStep(float64(res.counts.S), countsSteps)
		v["comm_bytes_per_step"] = perStep(float64(res.counts.W), countsSteps)
		v["setup_s"] = median(col(func(x sample) float64 { return float64(x.SetupNs) / 1e9 / x.SetupIndex }))
		return
	}

	cfg := w.config(s.o.seed)

	// nbody: the whole timestep as the caller of Run sees it.
	v["nbody.step_us_raw_p50"] = step
	v["nbody.step_us_p90"] = percentile(stepUs, 90)
	v["nbody.step_us_min"] = percentile(stepUs, 0)
	v["nbody.samples"] = float64(len(plain))
	v["nbody.allocs_per_step"] = median(col(func(x sample) float64 { return perStep(float64(x.Mallocs), k) }))
	var gcs float64
	for _, x := range plain {
		gcs += float64(x.GCs)
	}
	v["nbody.gc_per_kstep"] = 1000 * gcs / float64(len(plain)*k)
	v["nbody.new_us"] = median(col(func(x sample) float64 { return float64(x.NewNs) / 1e3 }))
	v["nbody.run_call_us"] = median(col(func(x sample) float64 { return float64(x.Run1Ns) / 1e3 })) - step
	v["nbody.verify_max_dev"] = res.maxDev
	quartiles := func(prefix string, diffs []float64) {
		if len(diffs) == 0 {
			return
		}
		v[prefix+"_frac"] = median(diffs)
		v[prefix+"_q1"] = percentile(diffs, 25)
		v[prefix+"_q3"] = percentile(diffs, 75)
	}
	quartiles("nbody.trace_overhead", paired(res.variantSamples("spans"), plain))

	// core: who waited. The phase times are the maximum over ranks of
	// wall time, so they do not add up to the step.
	for ph, name := range phaseNames {
		v["core.phase_us."+name] = median(col(func(x sample) float64 { return perStep(float64(x.PhaseNs[ph])/1e3, k) }))
	}
	lanes := cfg.P * max(1, runtime.GOMAXPROCS(0)/cfg.P)
	cores := min(runtime.GOMAXPROCS(0), lanes)
	v["core.compute_cpu_share"] = median(col(func(x sample) float64 { return perStep(float64(x.ComputeSum)/1e3, k) })) / (step * float64(cores))
	v["core.worker_imbalance"] = median(col(func(x sample) float64 { return x.WorkerImb }))
	if res.serialStepUs > 0 {
		v["core.speedup_vs_serial"] = res.serialStepUs / step
	}

	// phys: how much of the CPU was kernel. Computed, not measured in
	// place: the direct-call cost per pair times the exact pair count.
	observed := res.variantSamples("observe")
	if len(observed) > 0 {
		pairs := perStep(float64(observed[0].Pairs), k+1) // the counter also saw the warm-up step
		exact := true
		var events []float64
		var dropped float64
		for _, x := range observed {
			exact = exact && x.Pairs == observed[0].Pairs
			events = append(events, perStep(float64(x.Events), k+1))
			dropped = math.Max(dropped, float64(x.Dropped))
		}
		s.ops.check(w.name+" pair count repeats", exact, "compute.pairs differs between rounds")
		v["phys.pairs_per_step"] = pairs
		if ns, ok := v["phys.accumulate_ns_per_pair"]; ok && res.kernelIndex > 0 {
			v["phys.kernel_cpu_us_per_step"] = ns * pairs / 1e3
			// The probe ran minutes after the rounds, on a host that may
			// have moved since: the share divides calibrated by calibrated.
			v["phys.kernel_cpu_share"] = ns * pairs / 1e3 / res.kernelIndex / cpuCal
		}
		v["obs.events_per_step"] = median(events)
		v["obs.timeline_dropped"] = dropped
		quartiles("obs.overhead", paired(observed, plain))
		quartiles("obs.record_overhead", paired(res.variantSamples("stream"), observed))
	}

	// comm: the exact all-rank totals behind S and W.
	var msgs, bytes int64
	for _, ph := range res.counts.Phases {
		msgs += ph[0]
		bytes += ph[1]
	}
	v["comm.msgs_per_step"] = perStep(float64(msgs), countsSteps)
	v["comm.bytes_per_step"] = perStep(float64(bytes), countsSteps)
	if twin := res.variantSamples("twin"); len(twin) > 0 {
		overhead := stepP50(twin, k) - step // the twin of an in-process workload is the socket run
		if w.socket {
			overhead = -overhead
		}
		v["comm.net.step_overhead_us"] = overhead
	}
	if res.sBound > 0 && res.wBound > 0 {
		v["bounds.s_ratio"] = float64(res.counts.S) / res.sBound
		v["bounds.w_ratio"] = float64(res.counts.W) / res.wBound
	}

	v["host.calib_ns"] = median(col(func(x sample) float64 { return x.Calib[1].RingNs + x.Calib[1].WalkNs }))
	v["host.index"] = median(col(func(x sample) float64 { return x.HostIndex }))
	v["host.drift_frac"] = s.drift()
	v["host.load1_start"], v["host.load1_end"] = s.load0, s.load1
}

// crossChecks asserts that the workloads stress what they claim, where
// the set measured what the claim needs.
func (s *set) crossChecks() {
	byName := map[string]*result{}
	for _, res := range s.results {
		byName[res.workload.name] = res
		miss := res.metrics.missing(s.defs())
		s.ops.check(res.workload.name+" report complete", len(miss) == 0, "metrics not measured: %v", miss)
	}
	// A claim that rests on timings is checked only while the host held
	// still; when it moved by more than driftUnresolved — between the
	// quarters of the rounds, or between the rounds and the kernel probe
	// — a miss says nothing about the workload and is reported unresolved,
	// like a timing in -agree. Counts are always checked.
	timingClaim := func(name, metric, what string, holds func(float64) bool) {
		res := byName[name]
		if res == nil {
			return
		}
		val, ok := res.metrics[metric]
		if !ok {
			return // the untraced set, or a probe that failed and said so
		}
		moved := math.Max(s.drift(), math.Abs(res.kernelIndex/res.metrics["host.index"]-1))
		if !holds(val) && moved > driftUnresolved {
			s.logf("# %s: claim unresolved, the host moved by %.0f%%: %s %.3f is not %s\n", name, 100*moved, metric, val, what)
			return
		}
		s.ops.check(name+": "+metric+" "+what, holds(val), "%s is %.3f", metric, val)
	}
	timingClaim("ap-compute", "phys.kernel_cpu_share", fmt.Sprintf(">= %g", computeKernelShareMin), func(v float64) bool { return v >= computeKernelShareMin })
	timingClaim("ap-latency", "phys.kernel_cpu_share", fmt.Sprintf("<= %g", latencyKernelShareMax), func(v float64) bool { return v <= latencyKernelShareMax })
	for _, name := range []string{"ap-latency", "ap-socket"} {
		timingClaim(name, "comm.net.step_overhead_us", "> 0", func(v float64) bool { return v > 0 })
	}
	small, two := byName["cutoff-small"], byName["cutoff-2d"]
	if small != nil && two != nil && !s.o.traced {
		a, b := two.metrics["alloc_kb_per_step"], small.metrics["alloc_kb_per_step"]
		s.ops.check("cutoff-2d allocates", a >= cutoffAllocRatioMin*b, "alloc_kb_per_step %.1f on cutoff-2d is under %dx the %.1f of cutoff-small", a, cutoffAllocRatioMin, b)
	}
}

// defs is the metric table of the set: end-to-end when untraced,
// per-layer when traced.
func (s *set) defs() []metricDef {
	if s.o.traced {
		return perLayer
	}
	return endToEnd
}

// drift is the host-noise witness of the set: how far the host index
// moved between the quarters of the set.
func (s *set) drift() float64 { return quarterDrift(s.indices) }

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the report: the environment stamp, every metric of every
// workload by name with unit, direction and bound, the failures, and as
// the last line the result object. With one workload the metrics object
// is keyed by metric name; with several by "workload/metric".
func (s *set) print(out io.Writer) error {
	stamp, err := json.Marshal(s.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "env %s\n", stamp)
	line := resultLine{
		Correct:   s.ops.failed == 0,
		Attempted: s.ops.attempted,
		Failed:    s.ops.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, res := range s.results {
		w := res.workload
		n := len(res.variantSamples("plain"))
		fmt.Fprintf(out, "\nworkload %s  (batch %d steps, %d rounds; p%g is the highest percentile with %d samples beyond it)\n  %s\n",
			w.name, w.batch, n, tailPercentile(n), minBeyond, w.why)
		for _, d := range s.defs() {
			val, ok := res.metrics[d.Name]
			if !ok {
				continue
			}
			bound := ""
			if !s.o.traced {
				bound = fmt.Sprintf("  bound %g%%", 100*d.Bound)
			}
			fmt.Fprintf(out, "  %-30s %16.6g %-8s %s is better%s\n", d.Name, val, d.Unit, d.Better, bound)
			key := d.Name
			if len(s.results) > 1 {
				key = w.name + "/" + d.Name
			}
			line.Metrics[key] = metricValue{Value: val, Unit: d.Unit}
		}
	}
	fmt.Fprintf(out, "\nfail_frac %g (%d failed of %d attempted operations); host.drift_frac %.4f; set wall %.1f s\n",
		float64(s.ops.failed)/float64(max(1, s.ops.attempted)), s.ops.failed, s.ops.attempted, s.drift(), s.env.SetWallS)
	for _, f := range s.ops.failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", last)
	return err
}

// writeSamples dumps every sample as JSONL, after one line with the
// environment stamp, so a reviewer can pair parent and change rounds.
func (s *set) writeSamples(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Env envStamp `json:"env"`
	}{s.env})
	for _, res := range s.results {
		for _, smp := range res.samples {
			if err == nil {
				err = enc.Encode(smp)
			}
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
