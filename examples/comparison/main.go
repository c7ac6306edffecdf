// Comparison runs every decomposition in the repository on equivalent
// workloads and prints wall time and measured critical-path
// communication side by side — the executable version of the paper's
// Section II survey. All runs are verified against the serial reference
// before being reported.
package main

import (
	"fmt"
	"log"
	"time"

	nbody "repro"
)

func main() {
	log.SetFlags(0)
	const steps = 10

	fmt.Println("all-pairs workload: n=1024, p=16")
	fmt.Printf("%-26s %14s %10s %12s %10s\n", "algorithm", "time/step", "S", "W (bytes)", "max err")
	for _, alg := range []nbody.Algorithm{NaiveAllGatherAlg, ParticleAlg, CAAlg, ForceAlg} {
		cfg := nbody.Config{N: 1024, P: 16, Algorithm: alg}
		if alg == CAAlg {
			cfg.C = 4
		}
		row(cfg, steps)
	}

	fmt.Println("\ncutoff workload: n=1024, p=16, 1D, rc=L/4")
	fmt.Printf("%-26s %14s %10s %12s %10s\n", "algorithm", "time/step", "S", "W (bytes)", "max err")
	for _, c := range []int{1, 2} {
		cfg := nbody.Config{N: 1024, P: 16, C: c, Algorithm: nbody.CACutoff, Dim: 1, Cutoff: 4, Lattice: true, DT: 2e-4}
		row(cfg, steps)
	}
}

// Aliases keep the table loop readable.
const (
	NaiveAllGatherAlg = nbody.NaiveAllGather
	ParticleAlg       = nbody.ParticleDecomp
	CAAlg             = nbody.CAAllPairs
	ForceAlg          = nbody.ForceDecomp
)

func row(cfg nbody.Config, steps int) {
	sim, err := nbody.New(cfg)
	if err != nil {
		log.Fatalf("%v: %v", cfg.Algorithm, err)
	}
	start := time.Now()
	if err := sim.Run(steps); err != nil {
		log.Fatalf("%v: %v", cfg.Algorithm, err)
	}
	per := time.Since(start) / time.Duration(steps)
	worst, err := sim.VerifySerial()
	if err != nil {
		log.Fatalf("%v: %v", cfg.Algorithm, err)
	}
	rep := sim.Report()
	name := cfg.Algorithm.String()
	if cfg.C > 1 {
		name = fmt.Sprintf("%s (c=%d)", name, cfg.C)
	}
	fmt.Printf("%-26s %14v %10d %12d %10.2g\n", name, per, rep.S()/int64(steps), rep.W()/int64(steps), worst)
}
