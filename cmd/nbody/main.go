// Command nbody is the one command over the library. Bare, it runs a
// particle simulation with one of the paper's parallel decompositions on
// the goroutine message-passing runtime and prints the per-phase
// communication report. Its subcommands sweep the replication factor
// over real runs, render the paper's model figures, and cross-check
// counted communication against the paper's closed forms.
//
// Example:
//
//	nbody -n 1024 -p 64 -c 4 -steps 20 -verify
//	nbody -n 4096 -p 64 -c 2 -dim 1 -cutoff 4 -steps 10
//	nbody sweep -n 4096 -p 64 -dim 1 -cutoff 4 -cs 1,2,4 -steps 5
//	nbody sweep -n 2048 -p 64 -autotune
//	nbody figures -fig 2b -chart    # or -all, -all -csv -o out, -claims
//	nbody validate
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	nbody "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nbody: ")
	subcommands := map[string]func([]string){"sweep": sweep, "figures": figures, "validate": validate}
	if len(os.Args) > 1 {
		if cmd, ok := subcommands[os.Args[1]]; ok {
			log.SetPrefix("nbody " + os.Args[1] + ": ")
			cmd(os.Args[2:])
			return
		}
	}
	run(os.Args[1:])
}

// reportLabel names the steps the report covers: the last Run's k,
// which end at step end; chunked says the run took several.
func reportLabel(end, k int, chunked bool) string {
	switch {
	case k == 0:
		return "report of 0 steps"
	case chunked:
		return fmt.Sprintf("report of steps %d-%d (the last -observe chunk)", end-k+1, end)
	}
	return fmt.Sprintf("report of steps %d-%d", end-k+1, end)
}

// run is the bare command: one simulation, its report, and its outputs.
func run(args []string) {
	fs := flag.NewFlagSet("nbody", flag.ExitOnError)
	var sf simFlags
	sf.register(fs, 1024, 16, 10)
	var (
		c        = fs.Int("c", 1, "replication factor")
		dt       = fs.Float64("dt", 1e-3, "timestep length")
		boxL     = fs.Float64("box", 16, "box side length")
		seed     = fs.Uint64("seed", 1, "init seed")
		algName  = fs.String("alg", "auto", "algorithm: auto, ca-all-pairs, ca-cutoff, particle, force, naive")
		boundary = fs.String("boundary", "reflective", "boundary condition: reflective or periodic")
		lattice  = fs.Bool("lattice", false, "initialize particles on a jittered lattice")
		verify   = fs.Bool("verify", false, "verify against the serial reference after the run")
		observe  = fs.Int("observe", 0, "sample energies every N steps and print the series")
		trajFile = fs.String("traj", "", "write an XYZ trajectory to this file (a frame per -observe interval, or start/end)")
		saveFile = fs.String("save", "", "write a checkpoint to this file after the run")
		loadFile = fs.String("load", "", "resume from a checkpoint file (overrides most flags)")
	)
	fs.Parse(args)
	if sf.steps < 0 {
		log.Fatalf("-steps must be 0 or more, got %d", sf.steps)
	}
	if *loadFile != "" && sf.ranksPerProc > 0 {
		log.Fatal("-load is not supported with -ranks-per-proc (distributed resume)")
	}

	proc := sf.join()
	if proc != nil {
		defer proc.Close()
		if proc.ID() != 0 {
			*trajFile, *saveFile, *verify = "", "", false
		}
	}
	sf.out.serve()

	cfg := sf.config(proc)
	cfg.C, cfg.DT, cfg.BoxLength, cfg.Seed, cfg.Lattice = *c, *dt, *boxL, *seed, *lattice
	algs := map[string]nbody.Algorithm{"auto": nbody.Auto, "ca-all-pairs": nbody.CAAllPairs, "ca-cutoff": nbody.CACutoff,
		"particle": nbody.ParticleDecomp, "force": nbody.ForceDecomp, "naive": nbody.NaiveAllGather}
	boundaries := map[string]nbody.Boundary{"reflective": nbody.Reflective, "periodic": nbody.Periodic}
	var ok bool
	if cfg.Algorithm, ok = algs[*algName]; !ok {
		log.Fatalf("unknown -alg %q", *algName)
	}
	if cfg.Boundary, ok = boundaries[*boundary]; !ok {
		log.Fatalf("unknown -boundary %q", *boundary)
	}

	var sim *nbody.Simulation
	var err error
	if *loadFile != "" {
		data, err := os.ReadFile(*loadFile)
		if err == nil {
			sim, err = nbody.Load(bytes.NewReader(data))
		}
		if err != nil {
			log.Fatal(err)
		}
		if cfg.Observe != nil {
			sim.EnableObservation(cfg.Observe)
		}
		fmt.Printf("resumed from %s at step %d\n", *loadFile, sim.Steps())
	} else {
		sim, err = nbody.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	// What runs is the simulation's configuration: New fills defaults in
	// and settles the replication factor of the algorithms that fix it.
	cfg = sim.Config()
	sf.out.attach(sim, asIs)

	var traj *nbody.TrajectoryWriter
	if *trajFile != "" {
		f, err := os.Create(*trajFile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := errors.Join(traj.Flush(), f.Close()); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("trajectory (%d frames) written to %s\n", traj.Frames(), *trajFile)
		}()
		traj = nbody.NewTrajectoryWriter(f)
		if err := sim.WriteFrame(traj); err != nil {
			log.Fatal(err)
		}
	}

	// The steps run in chunks of -observe, or in one chunk without it.
	// The loop runs at least once, so -steps 0 still reports.
	chunk := sf.steps
	if *observe > 0 {
		chunk = *observe
		fmt.Printf("%-8s %12s %12s %12s %12s\n", "step", "kinetic", "potential", "total", "temperature")
	}
	start := time.Now()
	var k int // the steps of the last Run, which the report covers
	for done := 0; ; {
		k = min(chunk, sf.steps-done)
		if err := sim.Run(k); err != nil {
			log.Fatal(err)
		}
		done += k
		if *observe > 0 {
			s := sim.Observe()
			fmt.Printf("%-8d %12.6f %12.6f %12.6f %12.6f\n", s.Step, s.Kinetic, s.Potential, s.Total, s.Temperature)
		}
		if traj != nil {
			if err := sim.WriteFrame(traj); err != nil {
				log.Fatal(err)
			}
		}
		if done >= sf.steps {
			break
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("algorithm=%v p=%d c=%d n=%d steps=%d dim=%d cutoff=%g\n",
		cfg.Algorithm, cfg.P, cfg.C, cfg.N, sf.steps, cfg.Dim, cfg.Cutoff)
	fmt.Printf("wall time: %v (%v/step)\n\n", elapsed, elapsed/time.Duration(max(1, sf.steps)))
	fmt.Printf("%s\n%s", reportLabel(sim.Steps(), k, k < sf.steps), sim.Report())
	sf.out.finish(sim, asIs)

	if *saveFile != "" {
		write(*saveFile, "checkpoint", sim.Save)
	}

	if *verify {
		worst, err := sim.VerifySerial()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nverification vs. serial reference: worst deviation %.3g\n", worst)
		if worst > 1e-9 {
			fmt.Printf("verification FAILED\n")
			os.Exit(1)
		}
		fmt.Printf("verification OK\n")
	}
}
