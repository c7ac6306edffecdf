package main

import (
	"fmt"
	"io"
	"math"
)

// timing marks the end-to-end metrics that read a clock; the others are
// counts of the program and must not depend on the host.
var timing = map[string]bool{"step_us_p50": true, "cpu_us_per_step": true, "setup_s": true}

// verdict compares one metric of two sets of the same code. Within the
// bound they agree. Beyond it a count differs; a timing differs too,
// unless the host itself drifted by more than driftUnresolved during
// either set — then the pair says nothing about the code: unresolved.
func verdict(d metricDef, first, second, drift float64) (rel float64, v string) {
	rel = math.Abs(second-first) / math.Abs(first)
	switch {
	case rel <= d.Bound:
		return rel, "agrees"
	case timing[d.Name] && drift > driftUnresolved:
		return rel, "UNRESOLVED"
	default:
		return rel, "DIFFERS"
	}
}

// runAgree runs the untraced set twice back to back and prints, per
// workload, each end-to-end metric's relative difference beside its
// bound. It reports whether every metric agreed and no operation failed.
func runAgree(o options, out io.Writer) (bool, error) {
	o.traced = false
	var sets [2]*set
	for i := range sets {
		fmt.Fprintf(out, "set %d of 2\n", i+1)
		s, err := measure(o)
		if err != nil {
			return false, err
		}
		if err := s.print(out); err != nil {
			return false, err
		}
		sets[i] = s
	}
	drift := math.Max(sets[0].drift(), sets[1].drift())
	ok := sets[0].ops.failed == 0 && sets[1].ops.failed == 0
	fmt.Fprintf(out, "\nagreement of the two sets (host.drift_frac %.4f, unresolved above %.2f)\n", drift, driftUnresolved)
	fmt.Fprintf(out, "%-14s %-22s %14s %14s %9s %8s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	for i, a := range sets[0].results {
		b := sets[1].results[i]
		for _, d := range endToEnd {
			first, second := a.metrics[d.Name], b.metrics[d.Name]
			rel, v := verdict(d, first, second, drift)
			ok = ok && v == "agrees"
			fmt.Fprintf(out, "%-14s %-22s %14.6g %14.6g %8.2f%% %7.3g%%  %s\n", a.workload.name, d.Name, first, second, 100*rel, 100*d.Bound, v)
		}
	}
	if ok {
		fmt.Fprintln(out, "the two sets agree within every bound")
	} else {
		fmt.Fprintln(out, "the two sets do not agree; UNRESOLVED means the host drifted, measure again on a quiet one")
	}
	return ok, nil
}
