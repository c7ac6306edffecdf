package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
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
//     the step's evaluated plan (core.Session.Plan), every phase, for
//     Algorithm 1 at each c and for the two cutoff workloads' configs,
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

	// One counted run fills a row of the first table, and an all-pairs
	// one a row of the second.
	var eq5, eq2 strings.Builder
	counted := func(label string, newS func([]phys.Particle, core.Params) (*core.Session, error), ps []phys.Particle, pr core.Params) *trace.Report {
		sess, err := newS(ps, pr)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		plan, err := sess.Plan()
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		_, rep, err := sess.Advance(1)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		want := plan.Report()
		ok := sameCounts(rep.CriticalPath, want.CriticalPath) && sameCounts(rep.Sum, want.Sum)
		failed = failed || !ok
		got, exp := rep.CriticalPath[trace.Shift], want.CriticalPath[trace.Shift]
		fmt.Fprintf(&eq5, "%-6s %12d %12d %14d %14d %8v\n", label, got.Messages, exp.Messages, got.Bytes, exp.Bytes, ok)
		return rep
	}
	for c := 1; c*c <= *p; c *= 2 {
		pr := core.Params{P: *p, C: c, Law: phys.DefaultLaw(), Box: phys.NewBox(16, 2, phys.Reflective), DT: 1e-3}
		rep := counted(strconv.Itoa(c), core.NewAllPairs, phys.InitUniform(*n, pr.Box, 1), pr)
		m := bounds.MemoryPerRank(*n, *p, c)
		sLB := bounds.DirectLatency(*n, *p, m)
		wLB := bounds.DirectBandwidth(*n, *p, m)
		s := float64(rep.S())
		w := float64(rep.W()) / phys.WireSize
		rs := bounds.OptimalityRatio(s, sLB)
		rw := bounds.OptimalityRatio(w, wLB)
		if s < sLB || w < wLB || rs > 64 || rw > 64 {
			failed = true
		}
		fmt.Fprintf(&eq2, "%-6d %10.0f %10.1f %10.0f %10.1f %5.1f/%4.1f\n", c, s, sLB, w, wLB, rs, rw)
	}
	// The cutoff-small and cutoff-2d workloads' configurations.
	for _, w := range []struct {
		label        string
		n, p, c, dim int
		boundary     phys.Boundary
	}{{"1d c2", 512, 8, 2, 1, phys.Periodic}, {"2d c4", 4096, 64, 4, 2, phys.Reflective}} {
		box := phys.NewBox(16, w.dim, w.boundary)
		pr := core.Params{P: w.p, C: w.c, Law: phys.DefaultLaw().WithCutoff(4), Box: box, DT: 5e-4}
		counted(w.label, core.NewCutoff, phys.InitLattice(w.n, box, 1), pr)
	}
	fmt.Println("== counted communication vs. the evaluated step, every phase ==")
	fmt.Printf("%-6s %12s %12s %14s %14s %8s\n", "c", "shift msgs", "expected", "shift bytes", "expected", "ok")
	fmt.Print(eq5.String())
	fmt.Printf("(c: all-pairs, N %d P %d; 1d c2: cutoff-small's config; 2d c4: cutoff-2d's)\n", *n, *p)
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

// sameCounts says a counted table equals the evaluated one: every
// communication phase's messages and bytes, sent and received, but only
// the messages of the reassignment, whose bytes the motion decides.
func sameCounts(got, want trace.PhaseTable) bool {
	for _, ph := range trace.CommPhases() {
		g, w := got[ph], want[ph]
		if ph == trace.Reassign {
			g.Bytes, g.RecvBytes = 0, 0
		}
		if g.Messages != w.Messages || g.Bytes != w.Bytes || g.RecvMessages != w.RecvMessages || g.RecvBytes != w.RecvBytes {
			return false
		}
	}
	return true
}
