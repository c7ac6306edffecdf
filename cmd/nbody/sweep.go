package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	nbody "repro"
)

// sweep measures real wall-clock execution of the communication-avoiding
// algorithm over a range of replication factors — the laptop-scale
// counterpart of the paper's Figure 2 — or autotunes c, the strategy the
// paper suggests as future work. Each file output is written once per
// configuration, with .c<N> inserted before the extension.
func sweep(args []string) {
	fs := flag.NewFlagSet("nbody sweep", flag.ExitOnError)
	var sf simFlags
	sf.register(fs, 2048, 64, 5)
	var (
		csFlag    = fs.String("cs", "1,2,4,8", "comma-separated replication factors")
		autotune  = fs.Bool("autotune", false, "pick c automatically instead of sweeping")
		autotuneW = fs.Bool("autotune-workers", false, "pick the worker-pool width automatically instead of sweeping")
	)
	fs.Parse(args)
	if sf.steps < 1 {
		log.Fatalf("-steps must be at least 1 per configuration, got %d", sf.steps)
	}
	if sf.ranksPerProc > 0 && (*autotune || *autotuneW) {
		// Autotuning picks the next configuration from measured wall
		// time, which differs across processes — the mesh members would
		// diverge on the first disagreement.
		log.Fatal("-autotune and -autotune-workers are incompatible with -ranks-per-proc")
	}
	var cs []int
	for _, tok := range strings.Split(*csFlag, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			log.Fatalf("bad -cs entry %q: %v", tok, err)
		}
		cs = append(cs, c)
	}

	proc := sf.join()
	if proc != nil {
		defer proc.Close()
	}
	sf.out.serve()
	cfg := sf.config(proc)
	cfg.Lattice = sf.cutoff > 0

	if *autotuneW {
		best, rs, err := nbody.AutotuneWorkers(cfg, sf.steps, nil)
		if err != nil {
			log.Fatal(err)
		}
		printTuning("workers", len(rs), func(i int) (int, time.Duration, error) { return rs[i].Workers, rs[i].PerStep, rs[i].Err })
		fmt.Printf("autotuned worker-pool width: workers=%d\n", best)
		return
	}
	if *autotune {
		best, rs, err := nbody.AutotuneC(cfg, sf.steps, nil)
		if err != nil {
			log.Fatal(err)
		}
		printTuning("c", len(rs), func(i int) (int, time.Duration, error) { return rs[i].C, rs[i].PerStep, rs[i].Err })
		fmt.Printf("autotuned replication factor: c=%d\n", best)
		return
	}

	fmt.Printf("real-execution sweep: n=%d p=%d dim=%d cutoff=%g steps=%d\n",
		sf.n, sf.p, sf.dim, sf.cutoff, sf.steps)
	fmt.Printf("%-6s %14s %16s %14s\n", "c", "time/step", "S (msg events)", "W (bytes)")
	for _, c := range cs {
		run := cfg
		run.C = c
		sim, err := nbody.New(run)
		if err != nil {
			fmt.Printf("c=%-4d infeasible: %v\n", c, err)
			continue
		}
		// perConfig inserts ".c<N>" before the extension: run.json → run.c4.json.
		perConfig := func(path string) string {
			ext := filepath.Ext(path)
			return fmt.Sprintf("%s.c%d%s", strings.TrimSuffix(path, ext), c, ext)
		}
		sf.out.attach(sim, perConfig)
		start := time.Now()
		if err := sim.Run(sf.steps); err != nil {
			log.Fatalf("c=%d: %v", c, err)
		}
		per := time.Since(start) / time.Duration(sf.steps)
		rep := sim.Report()
		fmt.Printf("c=%-4d %14v %16d %14d\n", c, per, rep.S()/int64(sf.steps), rep.W()/int64(sf.steps))
		sf.out.finish(sim, perConfig)
	}
}

// printTuning prints an autotune table: the time per step of each of n
// candidate values of name, or why the candidate failed.
func printTuning(name string, n int, row func(i int) (int, time.Duration, error)) {
	fmt.Printf("%-*s %14s\n", len(name)+5, name, "time/step")
	for i := 0; i < n; i++ {
		v, per, err := row(i)
		if err != nil {
			fmt.Printf("%s=%-4d %14s (%v)\n", name, v, "-", err)
			continue
		}
		fmt.Printf("%s=%-4d %14v\n", name, v, per)
	}
}
