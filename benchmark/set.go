package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	nbody "repro"
	"repro/internal/trace"
)

// Constants of the method. They are the same on every commit; only the
// number of rounds may follow the clock, when the caller gives a time
// budget instead of a round count.
const (
	defaultRounds = 120 // rounds of an untraced set run without -seconds or -rounds
	minRounds     = 5   // rounds a time budget never cuts below
	countsSteps   = 10  // steps of the counts run
	verifyTol     = 1e-9
	// tracedRoundsShare is the part of a traced set's time budget its
	// rounds may use; the probes take the rest.
	tracedRoundsShare = 0.6
)

// phaseNames are the core.phase_us.* suffixes: every trace.Phase, in
// order, but the trailing "other".
var phaseNames = trace.PhaseNames()[:len(trace.PhaseNames())-1]

// variant is one way a round runs a workload. The untraced set has only
// the plain one; the traced set runs all five back to back in every
// round, so each overhead is a paired difference against the plain
// sample taken moments before.
type variant struct {
	name    string
	spans   bool // the benchmark records its spans around the calls
	observe bool // Config.Observe set: timeline, metrics, matrix, recorder ring
	stream  bool // ... and the flight recorder streaming JSONL
	twin    bool // the same config on the other transport (socket <-> in-process)
}

var (
	untracedVariants = []variant{{name: "plain"}}
	tracedVariants   = []variant{
		{name: "plain"},
		{name: "spans", spans: true},
		{name: "observe", observe: true},
		{name: "stream", observe: true, stream: true},
		{name: "twin", twin: true},
	}
)

// sample is one round of one workload under one variant: the timed
// Run(batch) and what was read around it. -samples dumps these.
type sample struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	Round    int    `json:"round"`
	// The host readings before the set-up, between set-up and timed run,
	// and after the timed run, and the two indices they give.
	Calib      [3]calibration `json:"calib"`
	SetupIndex float64        `json:"setup_index"`
	HostIndex  float64        `json:"host_index"`
	SetupNs    int64          `json:"setup_ns"` // mesh formation where there is one, New and the warm-up Run(1)
	NewNs      int64          `json:"new_ns"`
	Run1Ns     int64          `json:"run1_ns"` // the warm-up Run(1)
	WallNs     int64          `json:"wall_ns"` // the timed Run(batch)
	CPUNs      int64          `json:"cpu_ns"`
	AllocBytes uint64         `json:"alloc_bytes"`
	Mallocs    uint64         `json:"mallocs"`
	GCs        uint32         `json:"gcs"`
	Checksum   string         `json:"checksum"`
	PhaseNs    []int64        `json:"phase_ns"` // critical path per phaseNames entry
	ComputeSum int64          `json:"compute_sum_ns"`
	WorkerImb  float64        `json:"worker_imbalance"`
	Events     int64          `json:"events,omitempty"`
	Dropped    int64          `json:"dropped,omitempty"`
	Pairs      int64          `json:"pairs,omitempty"`
}

// options selects what one set measures.
type options struct {
	seed      uint64
	workloads []workload
	rounds    int           // fixed round count; 0 = as many as fit in budget
	budget    time.Duration // measuring time per workload when rounds is 0
	traced    bool
	scratch   string    // directory for unix sockets, created if missing
	log       io.Writer // progress lines
}

// tally counts operations: each New, Run, mesh join and output check is
// one, and a failed one makes the whole report incorrect.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) op(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		t.failures = append(t.failures, what+": "+err.Error())
	}
	return err == nil
}

// check is op for a yes/no output check.
func (t *tally) check(what string, ok bool, format string, args ...any) bool {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	return t.op(what, err)
}

// result is everything a set learned about one workload.
type result struct {
	workload workload
	samples  []sample
	counts   counts
	maxDev   float64
	sBound   float64
	wBound   float64
	// Two probe readings that feed derived metrics: the plain
	// single-threaded step, and the host index while the kernel probe ran.
	serialStepUs float64
	kernelIndex  float64
	// ids are the particle IDs of the initial state; sum, once haveSum,
	// is the checksum every round must end in.
	ids     []uint32
	sum     uint64
	haveSum bool
	// metrics are the end-to-end metrics in the untraced set, the
	// per-layer ones in the traced set.
	metrics values
}

func (r *result) variantSamples(name string) []sample {
	var out []sample
	for _, s := range r.samples {
		if s.Variant == name {
			out = append(out, s)
		}
	}
	return out
}

// set is one run of the benchmark over its workloads.
type set struct {
	o       options
	ops     tally
	tr      *tracer // nil in the untraced set
	socks   sockets
	results []*result
	load0   float64
	load1   float64
	env     envStamp
	indices []float64 // the host index of every sample, in the order taken
}

// measure runs one set: counts run and output checks, the interleaved
// rounds and, when traced, the layer probes.
func measure(o options) (*set, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, "s")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	s := &set{
		o:     o,
		socks: sockets{dir: dir},
		env:   newEnvStamp(o),
		load0: loadAvg1(),
	}
	if o.traced {
		s.tr = newTracer()
	}
	start := time.Now()
	for _, w := range o.workloads {
		res := &result{workload: w, metrics: values{}}
		s.results = append(s.results, res)
		end := s.tr.begin(w.name)
		s.countsRun(res)
		end()
	}
	s.rounds()
	if o.traced {
		for _, res := range s.results {
			end := s.tr.begin(res.workload.name)
			s.probe(res)
			end()
		}
	}
	s.load1 = loadAvg1()
	s.env.SetWallS = time.Since(start).Seconds()
	for _, res := range s.results {
		s.summarize(res)
	}
	s.crossChecks()
	return s, nil
}

func (s *set) logf(format string, args ...any) {
	if s.o.log != nil {
		fmt.Fprintf(s.o.log, format, args...)
	}
}

// ranksPerProc is the split of a config's ranks over the two procs.
func ranksPerProc(cfg nbody.Config) int { return cfg.P / 2 }

// countsRun is the exact half of the benchmark: a fresh simulation
// advanced countsSteps steps gives S, W and the per-phase totals, is
// verified against the serial reference, and is repeated to show the
// counts and the state repeat exactly. A socket workload is also held
// against its in-process twin.
func (s *set) countsRun(res *result) {
	w := res.workload
	cfg := w.config(s.o.seed)
	defer s.tr.begin("counts")()

	var m *mesh
	if w.socket {
		end := s.tr.begin("JoinProcs")
		var err error
		m, err = joinMesh(s.socks.next(), ranksPerProc(cfg))
		end()
		if !s.ops.op(w.name+" counts join", err) {
			return
		}
		defer m.close()
	}
	run := func(label string, m *mesh) (*instance, bool) {
		end := s.tr.begin("New")
		in, err := newInstance(cfg, m)
		end()
		if !s.ops.op(w.name+" "+label+" New", err) {
			return nil, false
		}
		if res.ids == nil {
			res.ids = particleIDs(in.lead().Particles())
		}
		end = s.tr.begin("Run")
		err = in.run(countsSteps)
		end()
		if !s.ops.op(w.name+" "+label+" Run", err) {
			return nil, false
		}
		s.ops.op(w.name+" "+label+" procs agree", in.agree())
		s.checkConserved(res, label, in.lead().Particles())
		return in, true
	}

	first, ok := run("counts", m)
	if !ok {
		return
	}
	res.counts = countsOf(first.lead())
	rep := first.lead().Report()
	res.sBound, res.wBound = rep.SLowerBound, rep.WLowerBound
	sum := checksum(first.lead().Particles())

	end := s.tr.begin("VerifySerial")
	dev, err := first.lead().VerifySerial()
	end()
	res.maxDev = dev
	if s.ops.op(w.name+" VerifySerial", err) {
		s.ops.check(w.name+" verify tolerance", dev <= verifyTol, "deviation %g from the serial reference exceeds %g", dev, verifyTol)
	}

	same := func(label string, in *instance) {
		got := countsOf(in.lead())
		s.ops.check(w.name+" "+label+" counts", got == res.counts, "counts %+v, first run had %+v", got, res.counts)
		gotSum := checksum(in.lead().Particles())
		s.ops.check(w.name+" "+label+" state", gotSum == sum, "checksum %016x, first run had %016x", gotSum, sum)
	}
	if again, ok := run("repeat", m); ok {
		same("repeat", again)
	}
	if w.socket {
		if twin, ok := run("in-process twin", nil); ok {
			same("in-process twin", twin)
		}
	}
}

func particleIDs(ps []nbody.Particle) []uint32 {
	ids := make([]uint32, len(ps))
	for i := range ps {
		ids[i] = ps[i].ID
	}
	return ids
}

// checkConserved holds a state (sorted by ID, as Particles returns it)
// against the ID set the workload started with.
func (s *set) checkConserved(res *result, label string, ps []nbody.Particle) {
	want := res.ids
	ok := len(ps) == len(want)
	for i := 0; ok && i < len(ps); i++ {
		ok = ps[i].ID == want[i]
	}
	s.ops.check(res.workload.name+" "+label+" particles conserved", ok, "particle count or ID set changed (%d particles, started with %d)", len(ps), len(want))
}

// rounds is the timed half. In each round every workload runs once per
// variant, one after another, so that host drift spreads over all of
// them; each sample is a fresh set-up (mesh where there is one, New, a
// warm-up Run(1)), which is what setup_s times, and one timed
// Run(batch).
func (s *set) rounds() {
	variants := untracedVariants
	budget := s.o.budget
	if s.o.traced {
		variants = tracedVariants
		budget = time.Duration(float64(budget) * tracedRoundsShare)
	}
	fixed := s.o.rounds
	if fixed == 0 && budget == 0 {
		// The same number of samples either way: the traced set spends
		// its rounds on five variants each.
		fixed = defaultRounds / len(variants)
	}
	deadline := time.Now().Add(budget * time.Duration(len(s.results)))

	for round := 0; ; round++ {
		if fixed > 0 && round >= fixed || fixed == 0 && round >= minRounds && !time.Now().Before(deadline) {
			s.env.Rounds = round
			break
		}
		for _, res := range s.results {
			for _, v := range variants {
				if smp, ok := s.sampleOnce(res, v, round); ok {
					res.samples = append(res.samples, smp)
					s.indices = append(s.indices, smp.HostIndex)
				}
			}
		}
	}
}

// sampleOnce takes one sample. Everything it reads around the timed run
// is read outside the timed interval.
func (s *set) sampleOnce(res *result, v variant, round int) (sample, bool) {
	w := res.workload
	var tr *tracer
	if v.spans {
		tr = s.tr
	}
	label := fmt.Sprintf("%s round %d %s", w.name, round, v.name)
	smp := sample{Workload: w.name, Variant: v.name, Round: round}
	cfg := w.config(s.o.seed)
	if v.observe {
		cfg.Observe = &nbody.ObserveOptions{}
	}
	defer tr.begin(w.name)()
	defer tr.begin(fmt.Sprintf("round %d", round))()

	smp.Calib[0] = calibrate()
	setup := time.Now()
	var m *mesh
	if w.socket != v.twin {
		end := tr.begin("JoinProcs")
		var err error
		m, err = joinMesh(s.socks.next(), ranksPerProc(cfg))
		end()
		if !s.ops.op(label+" join", err) {
			return smp, false
		}
		defer m.close()
	}
	end := tr.begin("New")
	t0 := time.Now()
	in, err := newInstance(cfg, m)
	smp.NewNs = time.Since(t0).Nanoseconds()
	end()
	if !s.ops.op(label+" New", err) {
		return smp, false
	}
	if v.stream {
		if !s.ops.op(label+" StreamTo", in.lead().Recorder().StreamTo(io.Discard)) {
			return smp, false
		}
	}

	end = tr.begin("Run(1)")
	t0 = time.Now()
	err = in.run(1)
	smp.Run1Ns = time.Since(t0).Nanoseconds()
	smp.SetupNs = time.Since(setup).Nanoseconds()
	end()
	if !s.ops.op(label+" Run(1)", err) {
		return smp, false
	}

	// Start every timed run from a collected heap, so that what one
	// round left behind is not collected on the next one's clock.
	runtime.GC()
	smp.Calib[1] = calibrate()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	end = tr.begin("Run(batch)")
	t0 = time.Now()
	err = in.run(w.batch)
	smp.WallNs = time.Since(t0).Nanoseconds()
	end()
	smp.CPUNs = (cpuTime() - cpu0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	if !s.ops.op(label+" Run(batch)", err) {
		return smp, false
	}
	smp.Calib[2] = calibrate()
	smp.SetupIndex = between(smp.Calib[0], smp.Calib[1])
	smp.HostIndex = between(smp.Calib[1], smp.Calib[2])
	smp.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	smp.Mallocs = m1.Mallocs - m0.Mallocs
	smp.GCs = m1.NumGC - m0.NumGC
	if v.stream {
		s.ops.op(label+" CloseStream", in.lead().Recorder().CloseStream())
	}

	rep := in.lead().Report()
	for ph := range phaseNames {
		smp.PhaseNs = append(smp.PhaseNs, rep.CriticalPath[ph].Time.Nanoseconds())
	}
	smp.ComputeSum = rep.Sum[trace.Compute].Time.Nanoseconds()
	smp.WorkerImb = rep.WorkerImbalance()
	if v.observe {
		// Each proc's observer holds what its own ranks did.
		for _, sim := range in.sims {
			smp.Pairs += sim.MetricsSnapshot().Counters["compute.pairs"]
			tl := sim.Timeline()
			smp.Dropped += tl.Dropped()
			for r := 0; r < tl.Ranks(); r++ {
				smp.Events += int64(tl.Rank(r).Len())
			}
		}
		smp.Events += smp.Dropped
	}

	ps := in.lead().Particles()
	sum := checksum(ps)
	smp.Checksum = fmt.Sprintf("%016x", sum)
	if !res.haveSum {
		res.sum, res.haveSum = sum, true
	}
	s.ops.check(label+" state", sum == res.sum, "checksum %016x, earlier rounds ended in %016x", sum, res.sum)
	s.checkConserved(res, fmt.Sprintf("round %d %s", round, v.name), ps)
	if m != nil {
		s.ops.op(label+" procs agree", in.agree())
	}
	return smp, true
}
