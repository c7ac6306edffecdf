package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	nbody "repro"
	"repro/internal/obs/record"
)

// simFlags are the flags of the commands that run simulations (the run
// command and sweep): the run's shape, the mesh, and the telemetry
// outputs.
type simFlags struct {
	n, p, workers, dim, steps int
	cutoff                    float64
	ranksPerProc              int
	rendezvous                string
	spawn                     bool
	out                       outputs
}

// register defines the flags on fs; n, p and steps are the command's
// own defaults.
func (f *simFlags) register(fs *flag.FlagSet, n, p, steps int) {
	fs.IntVar(&f.n, "n", n, "number of particles")
	fs.IntVar(&f.p, "p", p, "number of ranks (goroutines)")
	fs.IntVar(&f.workers, "workers", 0, "intra-rank force workers per rank (0 = spread GOMAXPROCS over ranks)")
	fs.IntVar(&f.dim, "dim", 2, "spatial dimension (1 or 2)")
	fs.Float64Var(&f.cutoff, "cutoff", 0, "cutoff radius (0 = all pairs)")
	fs.IntVar(&f.steps, "steps", steps, "timesteps to run (sweep: per configuration)")

	fs.IntVar(&f.ranksPerProc, "ranks-per-proc", 0, "span the simulation across OS processes, this many ranks per process (0 = all ranks in-process); requires -rendezvous or -spawn")
	fs.StringVar(&f.rendezvous, "rendezvous", "", "mesh rendezvous address: host:port for TCP, a filesystem path (or unix:path) for unix sockets; every process of one run names the same address")
	fs.BoolVar(&f.spawn, "spawn", false, "spawn the p/ranks-per-proc - 1 follower processes automatically (re-executes this binary over loopback); the spawner becomes proc 0")

	// Sweep writes each file flag's output once per configuration, with
	// .c<N> inserted before the extension.
	o := &f.out
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event timeline (one track per rank) to this file; open in Perfetto")
	fs.StringVar(&o.traceJSONL, "trace-jsonl", "", "write the event timeline as JSON lines to this file")
	fs.IntVar(&o.traceCap, "trace-events", 0, "per-rank event ring capacity (0 = default 65536)")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the metrics registry snapshot as JSON to this file (flushed every second during the run)")
	fs.StringVar(&o.recordOut, "record-out", "", "stream the per-step flight recording (JSON lines, one sample per step) to this file; a .gz suffix gzip-compresses it")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&o.httpAddr, "http", "", "serve the live telemetry hub on this address (e.g. localhost:8080): /metrics, /snapshot.json, /trace, /matrix.json, /debug/pprof; a sweep re-attaches it to each configuration")
	fs.BoolVar(&o.matrix, "matrix", false, "print the per-phase src x dst communication matrix after the run")
	fs.StringVar(&o.matrixFile, "matrix-out", "", "write the communication-matrix snapshot as JSON to this file after the run (the document the live hub serves at /matrix.json)")
}

// join resolves the mesh flags into this process's mesh membership, nil
// when every rank is in-process. A follower process (ID > 0) discards
// its stdout and blanks every telemetry output, so it observes nothing:
// reports, files and servers live on proc 0, which holds the merged
// state, and
// the follower's traffic reaches proc 0's communication matrix through
// the tallies its FINISH frame carries at the end of each run.
func (f *simFlags) join() *nbody.ProcGroup {
	if f.ranksPerProc <= 0 {
		if f.spawn || f.rendezvous != "" {
			log.Fatal("-spawn and -rendezvous require -ranks-per-proc")
		}
		return nil
	}
	proc := setupMesh(f.p, f.ranksPerProc, f.rendezvous, f.spawn)
	if proc.ID() != 0 {
		devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout = devnull
		f.out = outputs{}
	}
	return proc
}

// config is the run's base configuration, observed when an output needs
// it.
func (f *simFlags) config(proc *nbody.ProcGroup) nbody.Config {
	cfg := nbody.Config{N: f.n, P: f.p, Workers: f.workers, Dim: f.dim, Cutoff: f.cutoff, Proc: proc}
	o := f.out
	if o.traceOut != "" || o.traceJSONL != "" || o.metricsOut != "" || o.recordOut != "" ||
		o.httpAddr != "" || o.matrix || o.matrixFile != "" {
		cfg.Observe = &nbody.ObserveOptions{TimelineCapacity: o.traceCap}
	}
	return cfg
}

// outputs are the telemetry flags and what they hold open: the pprof
// server and the live hub for the whole command, and per simulation the
// streamed flight recording and the metrics flusher. attach and finish
// take path, which maps a file flag to the simulation's file: asIs for
// the run command, one name per configuration for sweep.
type outputs struct {
	traceOut, traceJSONL, metricsOut, recordOut, matrixFile string
	pprofAddr, httpAddr                                     string
	traceCap                                                int
	matrix                                                  bool

	hub       *nbody.LiveServer
	record    io.WriteCloser
	stopFlush chan struct{} // unbuffered: a send returns once the flusher has stopped writing
}

func asIs(path string) string { return path }

// serve starts pprof and the live hub, which serve until the command
// exits; each simulation attaches to the hub in turn, so a scraper
// watching the address sees every run.
func (o *outputs) serve() {
	if addr := o.pprofAddr; addr != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(addr, nil))
		}()
		fmt.Printf("pprof serving on http://%s/debug/pprof/\n", addr)
	}
	if o.httpAddr != "" {
		o.hub = nbody.NewLiveHub()
		bound, err := o.hub.Start(o.httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("live telemetry on http://%s/ (metrics, snapshot.json, trace, matrix.json, series.json, debug/pprof)\n", bound)
	}
}

// attach points the hub at sim, streams its flight recording, and
// rewrites its metrics file once a second while it runs, so long runs
// are inspectable mid-flight.
func (o *outputs) attach(sim *nbody.Simulation, path func(string) string) {
	if o.hub != nil {
		if err := sim.AttachLive(o.hub); err != nil {
			log.Fatal(err)
		}
	}
	if o.recordOut != "" {
		sink, err := record.OpenSink(path(o.recordOut))
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.Recorder().StreamTo(sink); err != nil {
			log.Fatal(err)
		}
		o.record = sink
	}
	if o.metricsOut != "" {
		name, stop := path(o.metricsOut), make(chan struct{})
		o.stopFlush = stop
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := writeFile(name, sim.WriteMetrics); err != nil {
						log.Printf("metrics flush: %v", err)
					}
				case <-stop:
					return
				}
			}
		}()
	}
}

// finish prints and writes what sim's run produced and closes its
// recording. The flusher takes the stop signal only between writes and
// then returns, so no tick can rewrite the metrics file during or after
// the final write.
func (o *outputs) finish(sim *nbody.Simulation, path func(string) string) {
	if o.matrix {
		fmt.Printf("\n%s", sim.CommMatrix().Table())
	}
	if o.matrixFile != "" {
		write(path(o.matrixFile), "communication matrix", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(sim.CommMatrix())
		})
	}
	if o.stopFlush != nil {
		o.stopFlush <- struct{}{}
		o.stopFlush = nil
		write(path(o.metricsOut), "metrics snapshot", sim.WriteMetrics)
	}
	if o.traceOut != "" {
		what := fmt.Sprintf("Chrome trace (%d ranks, %d events dropped; open at https://ui.perfetto.dev)",
			sim.Timeline().Ranks(), sim.Timeline().Dropped())
		write(path(o.traceOut), what, sim.WriteTrace)
	}
	if o.traceJSONL != "" {
		write(path(o.traceJSONL), "JSONL timeline", sim.Timeline().WriteJSONL)
	}
	if o.record != nil {
		if err := errors.Join(sim.Recorder().CloseStream(), o.record.Close()); err != nil {
			log.Fatal(err)
		}
		o.record = nil
		fmt.Printf("flight recording (%d steps) written to %s\n", sim.Recorder().Total(), path(o.recordOut))
	}
}

// write writes one output file and says so; a failure ends the command.
func write(path, what string, fn func(io.Writer) error) {
	if err := writeFile(path, fn); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s written to %s\n", what, path)
}

// writeFile creates path and streams fn's output into it.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(fn(f), f.Close())
}
