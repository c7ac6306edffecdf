package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/phys"
	"repro/internal/trace"
)

// validate cross-checks the three layers of this reproduction against
// each other and against the paper's theory:
//
//  1. counted communication (real goroutine runs, instrumented) versus
//     the closed-form costs of Equation 5,
//  2. counted communication versus the lower bounds of Equation 2
//     evaluated at M = c·n/p (communication optimality),
//  3. the event-driven torus simulation versus the analytic performance
//     model (communication time within a factor of two).
//
// It exits non-zero if any check fails.
func validate(args []string) {
	fs := flag.NewFlagSet("nbody validate", flag.ExitOnError)
	var (
		n = fs.Int("n", 512, "particles for the real-execution checks")
		p = fs.Int("p", 64, "ranks for the real-execution checks")
	)
	fs.Parse(args)
	failed := false

	// One counted run per c fills a row of each of the first two tables.
	var eq5, eq2 strings.Builder
	for c := 1; c*c <= *p; c *= 2 {
		pr := core.Params{P: *p, C: c, Law: phys.DefaultLaw(), Box: phys.NewBox(16, 2, phys.Reflective), DT: 1e-3}
		sess, err := core.NewAllPairs(phys.InitUniform(*n, pr.Box, 1), pr)
		if err != nil {
			log.Fatalf("c=%d: %v", c, err)
		}
		_, rep, err := sess.Advance(1)
		if err != nil {
			log.Fatalf("c=%d: %v", c, err)
		}
		want := core.AllPairsExpectedCounts(*n, *p, c)
		got := rep.CriticalPath[trace.Shift]
		ok := got.Messages == want.ShiftSends && got.Bytes == want.ShiftBytes
		fmt.Fprintf(&eq5, "%-6d %12d %12d %14d %14d %8v\n", c, got.Messages, want.ShiftSends, got.Bytes, want.ShiftBytes, ok)

		m := bounds.MemoryPerRank(*n, *p, c)
		sLB := bounds.DirectLatency(*n, *p, m)
		wLB := bounds.DirectBandwidth(*n, *p, m)
		s := float64(rep.S())
		w := float64(rep.W()) / phys.WireSize
		rs := bounds.OptimalityRatio(s, sLB)
		rw := bounds.OptimalityRatio(w, wLB)
		if !ok || s < sLB || w < wLB || rs > 64 || rw > 64 {
			failed = true
		}
		fmt.Fprintf(&eq2, "%-6d %10.0f %10.1f %10.0f %10.1f %5.1f/%4.1f\n", c, s, sLB, w, wLB, rs, rw)
	}
	fmt.Println("== counted communication vs. Equation 5 closed forms ==")
	fmt.Printf("%-6s %12s %12s %14s %14s %8s\n", "c", "shift msgs", "expected", "shift bytes", "expected", "ok")
	fmt.Print(eq5.String())
	fmt.Println("\n== counted communication vs. Equation 2 lower bounds ==")
	fmt.Printf("%-6s %10s %10s %10s %10s %10s\n", "c", "S", "S lb", "W(words)", "W lb", "ratios")
	fmt.Print(eq2.String())

	fmt.Println("\n== event-driven torus simulation vs. analytic model ==")
	mach := machine.Generic()
	fmt.Printf("%-6s %14s %14s %8s\n", "c", "netsim comm", "model comm", "ratio")
	for c := 1; c*c <= *p; c *= 2 {
		sim, err := netsim.AllPairsStep(mach, *p, *n, c)
		if err != nil {
			log.Fatalf("c=%d: %v", c, err)
		}
		mod, err := model.Evaluate(model.Config{Machine: mach, Alg: model.AllPairs, P: *p, N: *n, C: c})
		if err != nil {
			log.Fatalf("c=%d: %v", c, err)
		}
		ratio := sim.Comm() / mod.Comm()
		if ratio < 0.5 || ratio > 2 {
			failed = true
		}
		fmt.Printf("%-6d %14.3e %14.3e %8.2f\n", c, sim.Comm(), mod.Comm(), ratio)
	}

	if failed {
		fmt.Println("\nvalidation FAILED")
		os.Exit(1)
	}
	fmt.Println("\nall validations passed")
}
