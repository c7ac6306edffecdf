// Command obsdiff compares two flight recordings (JSONL, as written by
// nbody/sweep -record-out) metric by metric, and exits nonzero when any
// metric regresses past its threshold. `make netsmoke` uses it to hold a
// multi-process run's accounting equal to the in-process run's.
//
// Usage:
//
//	obsdiff [-threshold R] [-m name=ratio ...] [-exact substr ...] [-require N] OLD NEW
//
// A WorseUp metric (times, bytes, allocs) breaches when new >
// old·threshold; a WorseDown metric (speedups) when new <
// old/threshold. Exit codes: 0 ok, 1 regression, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs/record"
)

// stringsFlag collects a repeatable string flag.
type stringsFlag []string

func (f *stringsFlag) String() string { return strings.Join(*f, ",") }

func (f *stringsFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// perMetricFlag collects repeated -m name=ratio overrides.
type perMetricFlag map[string]float64

func (f perMetricFlag) String() string { return fmt.Sprintf("%v", map[string]float64(f)) }

func (f perMetricFlag) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=ratio, got %q", v)
	}
	r, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	f[name] = r
	return nil
}

func main() {
	perMetric := perMetricFlag{}
	threshold := flag.Float64("threshold", 1.5, "default regression ratio: worse-if-up metrics fail when new > old*threshold, worse-if-down when new < old/threshold (0 = report only)")
	flag.Var(perMetric, "m", "per-metric threshold override, name=ratio (repeatable)")
	var exact stringsFlag
	flag.Var(&exact, "exact", "metric-name substring that must match exactly — any difference breaches (repeatable); use for deterministic counts that must be transport-invariant")
	require := flag.Int("require", 1, "minimum number of common metrics the two artifacts must share")
	quiet := flag.Bool("q", false, "print only breaching rows")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: obsdiff [flags] OLD NEW\n  OLD, NEW: flight recordings (.jsonl[.gz])\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	oldDoc, err := record.LoadMetricDoc(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsdiff: %v\n", err)
		os.Exit(2)
	}
	newDoc, err := record.LoadMetricDoc(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsdiff: %v\n", err)
		os.Exit(2)
	}
	if oldDoc.Key != newDoc.Key {
		fmt.Fprintf(os.Stderr, "obsdiff: WARNING: comparing different configurations:\n  old %s\n  new %s\n", oldDoc.Key, newDoc.Key)
	}

	rows := record.Diff(oldDoc, newDoc, record.DiffOptions{
		Threshold: *threshold,
		PerMetric: perMetric,
		Exact:     exact,
	})
	if len(rows) < *require {
		fmt.Fprintf(os.Stderr, "obsdiff: only %d common metrics between %s and %s (require %d) — nothing to gate\n",
			len(rows), flag.Arg(0), flag.Arg(1), *require)
		os.Exit(2)
	}

	breaches := 0
	fmt.Printf("%-56s %14s %14s %8s %6s\n", "metric", "old", "new", "ratio", "")
	for _, r := range rows {
		if r.Breach {
			breaches++
		} else if *quiet {
			continue
		}
		mark := ""
		if r.Breach {
			mark = "BREACH"
		} else if r.Direction == record.Neutral {
			mark = "info"
		}
		fmt.Printf("%-56s %14s %14s %8s %6s\n", r.Name, fmtVal(r.Old), fmtVal(r.New), fmtRatio(r.Ratio), mark)
	}
	fmt.Printf("%d metrics compared, %d regression(s) past threshold %g\n", len(rows), breaches, *threshold)
	if breaches > 0 {
		os.Exit(1)
	}
}

func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func fmtRatio(r float64) string {
	if math.IsInf(r, 1) {
		return "+inf"
	}
	return strconv.FormatFloat(r, 'f', 3, 64)
}
