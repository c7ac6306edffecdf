package main

import "sort"

// metricDef declares one metric of the benchmark. The two tables below
// are the single source of the names, units, directions and bounds;
// BENCHMARK.json repeats them and a test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Unused
	// for per-layer metrics.
	Bound float64
}

// exactBound stands for "must not grow at all" on the two count
// metrics: it is smaller than one 8-byte word over the largest
// per-step volume of any workload (8 / 491520), so any real increase
// exceeds it, yet it is not the literal 0 a spread can never be below.
const exactBound = 1e-5

// endToEnd are the metrics a user of the library sees, reported per
// workload by the untraced set.
var endToEnd = []metricDef{
	{"step_us_p50", "us/step", "lower", 0.25},
	{"cpu_us_per_step", "us/step", "lower", 0.25},
	{"alloc_kb_per_step", "KB/step", "lower", 0.05},
	{"comm_msgs_per_step", "count", "lower", exactBound},
	{"comm_bytes_per_step", "bytes", "lower", exactBound},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the diagnostics of single layers, reported per workload
// by the traced set; the prefix is the layer (module) name.
var perLayer = []metricDef{
	{"nbody.step_us_raw_p50", "us/step", "lower", 0},
	{"nbody.step_us_p90", "us/step", "lower", 0},
	{"nbody.step_us_min", "us/step", "lower", 0},
	{"nbody.samples", "count", "higher", 0},
	{"nbody.allocs_per_step", "count", "lower", 0},
	{"nbody.gc_per_kstep", "1/kstep", "lower", 0},
	{"nbody.new_us", "us", "lower", 0},
	{"nbody.run_call_us", "us", "lower", 0},
	{"nbody.verify_max_dev", "len", "lower", 0},
	{"nbody.trace_overhead_frac", "ratio", "lower", 0},
	{"nbody.trace_overhead_q1", "ratio", "lower", 0},
	{"nbody.trace_overhead_q3", "ratio", "lower", 0},

	{"core.phase_us.compute", "us/step", "lower", 0},
	{"core.phase_us.broadcast", "us/step", "lower", 0},
	{"core.phase_us.skew", "us/step", "lower", 0},
	{"core.phase_us.shift", "us/step", "lower", 0},
	{"core.phase_us.reduce", "us/step", "lower", 0},
	{"core.phase_us.reassign", "us/step", "lower", 0},
	{"core.compute_cpu_share", "ratio", "higher", 0},
	{"core.worker_imbalance", "ratio", "lower", 0},
	{"core.speedup_vs_serial", "ratio", "higher", 0},

	{"phys.accumulate_ns_per_pair", "ns", "lower", 0},
	{"phys.pairs_per_step", "count", "lower", 0},
	{"phys.kernel_cpu_us_per_step", "us/step", "lower", 0},
	{"phys.kernel_cpu_share", "ratio", "higher", 0},
	{"phys.pool_speedup_w2", "ratio", "higher", 0},
	{"phys.step_ns_per_particle", "ns", "lower", 0},
	{"phys.codec_ns_per_particle", "ns", "lower", 0},

	{"comm.pingpong_us", "us", "lower", 0},
	{"comm.ring_shift_us", "us", "lower", 0},
	{"comm.bcast_us", "us", "lower", 0},
	{"comm.reduce_us", "us", "lower", 0},
	{"comm.barrier_us", "us", "lower", 0},
	{"comm.run_spinup_us", "us", "lower", 0},
	{"comm.msgs_per_step", "count", "lower", 0},
	{"comm.bytes_per_step", "bytes", "lower", 0},

	{"comm.net.join_ms", "ms", "lower", 0},
	{"comm.net.rtt_us", "us", "lower", 0},
	{"comm.net.rtt_tcp_us", "us", "lower", 0},
	{"comm.net.mbps", "MB/s", "higher", 0},
	{"comm.net.frame_ns", "ns", "lower", 0},
	{"comm.net.step_overhead_us", "us/step", "lower", 0},

	{"bounds.s_ratio", "ratio", "lower", 0},
	{"bounds.w_ratio", "ratio", "lower", 0},

	{"obs.overhead_frac", "ratio", "lower", 0},
	{"obs.overhead_q1", "ratio", "lower", 0},
	{"obs.overhead_q3", "ratio", "lower", 0},
	{"obs.record_overhead_frac", "ratio", "lower", 0},
	{"obs.record_overhead_q1", "ratio", "lower", 0},
	{"obs.record_overhead_q3", "ratio", "lower", 0},
	{"obs.events_per_step", "count", "lower", 0},
	{"obs.timeline_dropped", "count", "lower", 0},

	{"sim.save_us", "us", "lower", 0},
	{"sim.load_us", "us", "lower", 0},
	{"sim.checkpoint_bytes", "bytes", "lower", 0},

	{"host.calib_ns", "ns", "lower", 0},
	{"host.index", "ratio", "lower", 0},
	{"host.drift_frac", "ratio", "lower", 0},
	{"host.load1_start", "load", "lower", 0},
	{"host.load1_end", "load", "lower", 0},
}

// values maps metric name to measured value for one workload.
type values map[string]float64

// missing lists the metrics of defs that vs does not hold, so that a
// metric the tables promise can never silently drop out of a report.
func (vs values) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := vs[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
