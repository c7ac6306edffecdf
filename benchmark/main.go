// Command benchmark is the repository's benchmark: five fixed workloads
// measured from outside, through the public functions of each layer.
// README.md in this directory defines every workload and metric.
//
//	bash benchmark/run.sh -seed 1                 # untraced set: the end-to-end metrics
//	bash benchmark/run.sh -trace 1 -trace-out f   # traced set: the per-layer metrics and a span file
//	bash benchmark/run.sh -agree                  # two untraced sets, compared against the bounds
//
// The driver's form is
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and the last line of standard output is always one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "one workload by name, or all of them interleaved")
		seed     = fs.Uint64("seed", 1, "seed of the generated inputs (Config.Seed)")
		seconds  = fs.Float64("seconds", 0, "measure each workload for this long; 0 = a fixed number of rounds")
		rounds   = fs.Int("rounds", 0, fmt.Sprintf("fixed number of rounds (default %d when -seconds is 0, a fifth of that when traced)", defaultRounds))
		trace    = fs.Int("trace", 0, "0 = untraced set, end-to-end metrics; 1 = traced set, per-layer metrics")
		traceOut = fs.String("trace-out", "", "write the traced set's spans to this JSON file")
		samples  = fs.String("samples", "", "write every per-round sample to this JSONL file")
		agree    = fs.Bool("agree", false, "run the untraced set twice and hold the difference against the bounds")
		scratch  = fs.String("scratch", ".bench_build", "directory for the unix sockets of the socket workloads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace must be 0 or 1")
	}
	if *seconds < 0 || *rounds < 0 {
		return usage("-seconds and -rounds must not be negative")
	}
	if *agree && *trace == 1 {
		return usage("-agree compares untraced sets; drop -trace")
	}
	selected, err := selectWorkloads(*name)
	if err != nil {
		return usage("%v", err)
	}
	o := options{
		seed:      *seed,
		workloads: selected,
		rounds:    *rounds,
		budget:    time.Duration(*seconds * float64(time.Second)),
		traced:    *trace == 1,
		scratch:   *scratch,
		log:       stderr,
	}

	if *agree {
		ok, err := runAgree(o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	s, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *traceOut != "" && s.tr != nil {
		if err := s.tr.write(*traceOut, s.env); err != nil {
			fmt.Fprintf(stderr, "benchmark: trace file: %v\n", err)
			return 1
		}
	}
	if *samples != "" {
		if err := s.writeSamples(*samples); err != nil {
			fmt.Fprintf(stderr, "benchmark: samples file: %v\n", err)
			return 1
		}
	}
	if err := s.print(stdout); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if s.ops.failed > 0 {
		return 1
	}
	return 0
}
