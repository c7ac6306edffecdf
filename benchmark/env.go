package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// schemaVersion changes whenever a metric's definition does.
const schemaVersion = 1

// envStamp records where and how a report was measured; every report,
// sample dump and trace file carries one.
type envStamp struct {
	Schema     int            `json:"schema"`
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Seed       uint64         `json:"seed"`
	Rounds     int            `json:"rounds"`  // as run: the fixed count, or what fit into Seconds
	Seconds    float64        `json:"seconds"` // 0: a fixed number of rounds
	Traced     bool           `json:"traced"`
	Batch      map[string]int `json:"batch"`
	SetWallS   float64        `json:"set_wall_s"`
}

func newEnvStamp(o options) envStamp {
	batch := make(map[string]int, len(o.workloads))
	for _, w := range o.workloads {
		batch[w.name] = w.batch
	}
	return envStamp{
		Schema:     schemaVersion,
		Commit:     vcsRevision(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       o.seed,
		Seconds:    o.budget.Seconds(),
		Traced:     o.traced,
		Batch:      batch,
	}
}

// vcsRevision is the commit the toolchain stamped into the binary. The
// driver's checkout is not a git repository, and a test binary carries
// no stamp; both read "unknown".
func vcsRevision() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// loadAvg1 is the 1-minute load average, -1 where /proc has none.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuTime is the user+system CPU time the process has consumed: the
// core-seconds a user pays, whichever goroutine or thread spent them.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The host index. The box this benchmark runs on is a small shared
// virtual machine whose speed wanders by a third over a quarter of an
// hour (README.md, "Calibrated time"), so every timed interval is
// bracketed by two fixed loops that depend on nothing in the repository,
// and expressed at the speed of a nominal host. A change in the index
// between rounds or sets is the host moving, not the code under test.
//
// The two loops were chosen by measurement, not by argument: of the
// witnesses tried (a register-only floating-point loop, a frozen force
// kernel over arrays, this memory walk, this goroutine ring) only the
// last two follow the workloads' step times across host phases, and their
// geometric mean follows all five workloads about equally well.
const (
	ringRanks, ringTokens, ringLaps = 64, 8, 60
	walkSteps                       = 20_000
	calibPasses                     = 3
	// Nominal pass times, as measured on the reference box in a quiet
	// phase. Only ratios of calibrated times mean anything; the nominals
	// make a calibrated time read like a raw one on a quiet host.
	ringNominalNs = 1.85e6
	walkNominalNs = 1.75e6
)

// walkTable is what the memory walk visits: 4 MiB, more than the private
// caches of a core hold.
var walkTable = make([]uint64, 1<<19)

// calibSink keeps the walk's result alive.
var calibSink uint64

// ring passes ringTokens tokens ringLaps times around a ring of
// ringRanks goroutines over buffered channels: what every core of the
// host can do with wake-ups and cache lines changing hands, which is what
// a timestep's message phases are made of.
func ring() {
	chans := make([]chan int, ringRanks)
	for i := range chans {
		chans[i] = make(chan int, ringTokens) // never blocks a sender: at most ringTokens are in flight
	}
	var wg sync.WaitGroup
	wg.Add(ringRanks)
	for r := 0; r < ringRanks; r++ {
		go func(r int) {
			defer wg.Done()
			in, out := chans[r], chans[(r+1)%ringRanks]
			if r == 0 {
				for t := 0; t < ringTokens; t++ {
					out <- t
				}
			}
			for i := 0; i < ringLaps*ringTokens; i++ {
				v := <-in
				if r == 0 && i >= (ringLaps-1)*ringTokens {
					continue // rank 0 retires the tokens on their last lap
				}
				out <- v
			}
		}(r)
	}
	wg.Wait()
}

// walk is a pseudo-random read-modify-write walk over walkTable: what
// the memory system of the host can do.
func walk() {
	x := uint64(88172645463325252)
	for i := 0; i < walkSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		slot := &walkTable[x&uint64(len(walkTable)-1)]
		*slot += x
		x += *slot >> 60
	}
	calibSink += x
}

// fastest times loop calibPasses times and returns the fastest pass in
// nanoseconds, so that one preemption does not read as a slower host.
func fastest(loop func()) float64 {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < calibPasses; i++ {
		t0 := time.Now()
		loop()
		best = min(best, time.Since(t0))
	}
	return float64(best.Nanoseconds())
}

// calibration is one reading of the host.
type calibration struct {
	RingNs float64 `json:"ring_ns"`
	WalkNs float64 `json:"walk_ns"`
}

func calibrate() calibration { return calibration{RingNs: fastest(ring), WalkNs: fastest(walk)} }

// index is how much slower than nominal the host ran: the geometric
// mean of the two loops' slowdowns.
func (c calibration) index() float64 {
	return math.Sqrt(c.RingNs / ringNominalNs * c.WalkNs / walkNominalNs)
}

// between is the index of an interval bracketed by two readings.
func between(before, after calibration) float64 { return (before.index() + after.index()) / 2 }
