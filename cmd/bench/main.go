// Command bench measures the hot-path force kernels against their
// generic per-pair reference implementations, the end-to-end per-step
// wall time of the parallel algorithms, the intra-rank force
// pool's rank×worker scaling, and the rank→node placement searchers'
// wall time and hop-cost improvement, writing the results as JSON
// (BENCH_PR9.json in the repository root records a committed run).
//
//	bench -o BENCH_PR9.json   # full run, write the JSON report
//	bench -smoke              # fast gates only; exit 1 unless the
//	                          # specialized LJ-cutoff kernel beats its
//	                          # baseline by the smoke threshold, or
//	                          # pooled (workers > 1) runs diverge from
//	                          # workers=1 in final state or S/W
//
// The worker-pool comparison runs the same kernel batch and the same
// end-to-end configuration at widths 1, 2 and 4. The pool tiles by
// disjoint target ranges, so speedups are pure parallel efficiency:
// final states are bitwise-identical and per-phase message/byte counts
// unchanged across widths (both checked here, and gated in -smoke).
// Widths above GOMAXPROCS only time-slice — on a single-core host the
// reported speedups sit at ~1.0x and only the invariants are
// meaningful.
//
// The kernel microbenchmarks exercise phys.Kernel.Accumulate[In] and
// CellList.Forces against AccumulateGeneric/AccumulateInGeneric/
// ForcesGeneric on identical particle sets, so the reported speedup is
// exactly the win of hoisting the kind/cutoff/softening dispatch out of
// the pair loop. allocs_per_op doubles as a regression guard: the
// specialized loops must report 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	mrand "math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/record"
	"repro/internal/phys"
	"repro/internal/place"
	"repro/internal/topo"
	"repro/internal/trace"
)

// result is one benchmark line of the JSON report.
type result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"` // iterations measured
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// stepResult is one end-to-end algorithm timing.
type stepResult struct {
	Algorithm     string  `json:"algorithm"`
	Particles     int     `json:"particles"`
	Ranks         int     `json:"ranks"`
	Replication   int     `json:"replication"`
	Steps         int     `json:"steps"`
	WallNsPerStep float64 `json:"wall_ns_per_step"`
}

// tileKernelResult is one line of the tile-width × kernel microbench
// grid: the same batch at one source-tile width, against the untiled
// classic loop (tile = -1) on the same batch as baseline.
type tileKernelResult struct {
	Name    string  `json:"name"`
	Tile    int     `json:"tile"` // -1 = classic untiled loop
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup"` // vs the untiled loop on the same batch
}

// workerKernelResult is one pooled force-phase microbench line: the
// same Accumulate batch tiled across a pool of the given width.
type workerKernelResult struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup"` // vs workers=1 on the same batch
}

// workerScalingResult is one rank×worker end-to-end timing.
type workerScalingResult struct {
	Algorithm     string  `json:"algorithm"`
	Particles     int     `json:"particles"`
	Ranks         int     `json:"ranks"`
	Workers       int     `json:"workers"`
	Steps         int     `json:"steps"`
	WallNsPerStep float64 `json:"wall_ns_per_step"`
	Speedup       float64 `json:"speedup"` // vs workers=1 at the same rank count
}

// placementResult is one rank→node placement search measurement: one
// searcher against one traffic matrix over its Balanced3D generic
// torus. HopBytes and Improvement are deterministic (fixed seed, fixed
// matrix); SearchNs is the wall time of the search itself.
type placementResult struct {
	Source      string  `json:"source"` // "recorded" or "synthetic"
	Ranks       int     `json:"ranks"`
	Algorithm   string  `json:"algorithm"`
	SearchNs    float64 `json:"search_ns"`
	HopBytes    float64 `json:"hop_bytes"`
	Improvement float64 `json:"improvement"` // 1 - hop_bytes/identity
}

// recorderOverheadResult measures what the flight recorder costs on the
// all-pairs step loop: the same configuration timed unobserved, observed
// (timeline + metrics + matrix), and observed with a recording attached.
type recorderOverheadResult struct {
	Algorithm          string  `json:"algorithm"`
	Particles          int     `json:"particles"`
	Ranks              int     `json:"ranks"`
	Replication        int     `json:"replication"`
	Steps              int     `json:"steps"`
	OffNsPerStep       float64 `json:"off_ns_per_step"`
	ObservedNsPerStep  float64 `json:"observed_ns_per_step"`
	RecordingNsPerStep float64 `json:"recording_ns_per_step"`
	// OverheadFrac is (recording - observed) / observed: the marginal
	// cost of recording on an already-observed run.
	OverheadFrac float64 `json:"overhead_frac"`
}

type report struct {
	Kind          string                  `json:"kind"`
	GoVersion     string                  `json:"go_version"`
	GOMAXPROCS    int                     `json:"gomaxprocs"`
	KernelImpl    string                  `json:"kernel_impl"` // phys.KernelImpl: "avx2", "avx512vl" or "portable"
	Kernels       []result                `json:"kernels,omitempty"`
	TileKernels   []tileKernelResult      `json:"tile_kernels,omitempty"`
	Speedups      map[string]float64      `json:"speedups,omitempty"`
	Timesteps     []stepResult            `json:"timesteps,omitempty"`
	WorkerKernels []workerKernelResult    `json:"worker_kernels,omitempty"`
	WorkerScaling []workerScalingResult   `json:"worker_scaling,omitempty"`
	Placement     []placementResult       `json:"placement,omitempty"`
	Recorder      *recorderOverheadResult `json:"recorder,omitempty"`
	// Metrics is the flat name → value map obsdiff consumes directly
	// (the structured sections above are folded into the same namespace
	// by record.FoldBenchJSON; entries here pass through as-is).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// reportKind marks a bench report (vs the recorder's "canbody-recording").
const reportKind = "canbody-bench"

// smokeThreshold is the minimum LJ-cutoff speedup the -smoke gate
// accepts. Deliberately below the ≥1.3× the committed BENCH_PR4.json
// demonstrates: the gate guards against the fast path regressing to the
// generic path's cost on loaded CI machines, not against noise.
const smokeThreshold = 1.1

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		out       = flag.String("o", "BENCH_PR9.json", "output path for the JSON report")
		smoke     = flag.Bool("smoke", false, "run only the smoke gates (LJ-cutoff kernel, worker and tile invariance)")
		httpSmoke = flag.Bool("httpsmoke", false, "run only the live-telemetry smoke gate (mid-run scrapes, matrix and series conservation)")
		quick     = flag.Bool("quick", false, "run only the timestep, placement and recorder-overhead sections and write the report — the fast artifact the benchdiff gate compares against committed baselines")
	)
	flag.Parse()

	if *httpSmoke {
		checkHTTPSmoke()
		fmt.Println("ok")
		return
	}

	if *quick {
		rep := report{
			Kind:       reportKind,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			KernelImpl: phys.KernelImpl(),
			Metrics:    map[string]float64{},
		}
		rep.Timesteps = append(rep.Timesteps, timeAllPairs(), timeCutoff())
		rep.Placement = benchPlacement()
		fillPlacement(rep.Placement, rep.Metrics)
		rep.Recorder = recorderOverhead()
		rep.Recorder.fill(rep.Metrics)
		writeReport(rep, *out)
		return
	}

	box := phys.NewBox(3, 2, phys.Periodic)
	targets := phys.InitUniform(256, box, 1)
	sources := append(append([]phys.Particle(nil), targets...), phys.InitUniform(256, box, 2)...)
	for i := len(targets); i < len(sources); i++ {
		sources[i].ID += uint32(len(targets))
	}

	run := func(name string, f func(b *testing.B)) result {
		r := testing.Benchmark(f)
		res := result{
			Name:        name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Printf("%-28s %12d iters %14.1f ns/op %6d allocs/op\n", name, res.N, res.NsPerOp, res.AllocsPerOp)
		return res
	}

	benchPair := func(name string, law phys.Law) (generic, fast result) {
		kern := law.Kernel()
		generic = run(name+"/generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				law.AccumulateGeneric(targets, sources)
			}
		})
		fast = run(name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kern.Accumulate(targets, sources)
			}
		})
		return generic, fast
	}

	ljCut := phys.LJLaw(0.7, 0.4).WithCutoff(0.9)

	if *smoke {
		generic, fast := benchPair("lj_cut", ljCut)
		speedup := generic.NsPerOp / fast.NsPerOp
		fmt.Printf("lj_cut speedup: %.2fx (threshold %.2fx)\n", speedup, smokeThreshold)
		if fast.AllocsPerOp != 0 {
			log.Fatalf("FAIL: specialized kernel allocated %d times per op, want 0", fast.AllocsPerOp)
		}
		if speedup < smokeThreshold {
			log.Fatalf("FAIL: lj_cut speedup %.2fx below threshold %.2fx", speedup, smokeThreshold)
		}
		checkWorkerInvariance()
		checkTileInvariance()
		fmt.Println("ok")
		return
	}

	rep := report{
		Kind:       reportKind,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelImpl: phys.KernelImpl(),
		Speedups:   map[string]float64{},
		Metrics:    map[string]float64{},
	}
	addKernel := func(name string, generic, fast result) {
		rep.Kernels = append(rep.Kernels, generic, fast)
		rep.Speedups[name] = generic.NsPerOp / fast.NsPerOp
	}

	variants := []struct {
		name string
		law  phys.Law
	}{
		{"rep_open", phys.Law{Kind: phys.Repulsive, K: 1.3, Softening: 1e-3}},
		{"rep_cut", phys.Law{Kind: phys.Repulsive, K: 1.3, Softening: 1e-3, Cutoff: 0.9}},
		{"lj_open", phys.LJLaw(0.7, 0.4)},
		{"lj_cut", ljCut},
	}
	for _, v := range variants {
		generic, fast := benchPair(v.name, v.law)
		addKernel(v.name, generic, fast)
	}

	// Box-metric variant (minimum-image displacements), the cutoff
	// algorithm's inner loop.
	kern := ljCut.Kernel()
	genericIn := run("lj_cut_in/generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ljCut.AccumulateInGeneric(targets, sources, box)
		}
	})
	fastIn := run("lj_cut_in/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kern.AccumulateIn(targets, sources, box)
		}
	})
	addKernel("lj_cut_in", genericIn, fastIn)

	// Serial cell-list reference path.
	clPs := phys.InitUniform(1024, box, 3)
	cl := phys.NewCellList(clPs, ljCut.Cutoff, box)
	genericCL := run("celllist/generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cl.ForcesGeneric(clPs, ljCut)
		}
	})
	fastCL := run("celllist/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cl.Forces(clPs, ljCut)
		}
	})
	addKernel("celllist", genericCL, fastCL)

	rep.Timesteps = append(rep.Timesteps, timeAllPairs(), timeCutoff())

	rep.TileKernels = benchTileKernels(targets, sources, box)
	for _, tr := range rep.TileKernels {
		if tr.Tile >= 0 {
			rep.Speedups[fmt.Sprintf("tile_%s_t%d", tr.Name, tr.Tile)] = tr.Speedup
		}
	}

	rep.WorkerKernels = benchWorkerKernels()
	for _, wr := range rep.WorkerKernels {
		if wr.Workers > 1 {
			rep.Speedups[fmt.Sprintf("pool_accumulate_w%d", wr.Workers)] = wr.Speedup
		}
	}
	rep.WorkerScaling = workerScaling()
	for _, sr := range rep.WorkerScaling {
		if sr.Workers > 1 {
			rep.Speedups[fmt.Sprintf("%s_p%d_w%d", sr.Algorithm, sr.Ranks, sr.Workers)] = sr.Speedup
		}
	}
	checkWorkerInvariance()
	checkTileInvariance()
	rep.Placement = benchPlacement()
	fillPlacement(rep.Placement, rep.Metrics)
	rep.Recorder = recorderOverhead()
	rep.Recorder.fill(rep.Metrics)

	if rep.Speedups["lj_cut"] < smokeThreshold {
		log.Fatalf("FAIL: lj_cut speedup %.2fx below threshold %.2fx", rep.Speedups["lj_cut"], smokeThreshold)
	}

	writeReport(rep, *out)
}

// writeReport serializes the report to path.
func writeReport(rep report, path string) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// fill exposes the overhead measurement in the flat metric namespace
// (the *_ns_per_step entries are gated worse-if-up; overhead_frac is
// informational — it compares two same-run timings, not two runs).
func (r *recorderOverheadResult) fill(m map[string]float64) {
	m["recorder.off_ns_per_step"] = r.OffNsPerStep
	m["recorder.observed_ns_per_step"] = r.ObservedNsPerStep
	m["recorder.on_ns_per_step"] = r.RecordingNsPerStep
	m["recorder.overhead_frac"] = r.OverheadFrac
}

// recordedMatrixPath is the committed p=64 cutoff-run communication
// matrix the placement acceptance criteria are defined against. bench
// runs from the repository root (the Makefile targets), so the
// repo-relative path resolves; elsewhere the recorded problem is
// skipped with a note and the synthetic problems still run.
const recordedMatrixPath = "internal/place/testdata/matrix_cutoff_p64.json"

// syntheticTraffic builds a deterministic cutoff-shaped traffic matrix
// at rank count p: heavy ring-neighbor halo exchange (wraparound, the
// dominant term of the distance-limited algorithm) plus a sparse
// seeded set of long-range migration edges. Byte weights are arbitrary
// but fixed, so searcher objectives on it are reproducible.
func syntheticTraffic(p int) [][]float64 {
	rng := mrand.New(mrand.NewSource(int64(p)))
	traffic := make([][]float64, p)
	for i := range traffic {
		traffic[i] = make([]float64, p)
	}
	for r := 0; r < p; r++ {
		traffic[r][(r+1)%p] = 64 * 1024
		traffic[r][(r+p-1)%p] = 64 * 1024
		for k := 0; k < 6; k++ {
			d := rng.Intn(p)
			if d != r {
				traffic[r][d] += float64(8192 * (1 + rng.Intn(8)))
			}
		}
	}
	return traffic
}

// benchPlacement times each placement searcher on the recorded p=64
// matrix and on synthetic matrices at p=256 and p=1024, each over its
// Balanced3D one-core torus, reporting search wall time and the
// hop-weighted-byte improvement over the identity placement.
func benchPlacement() []placementResult {
	type problem struct {
		source  string
		traffic [][]float64
	}
	var problems []problem
	if traffic, err := place.LoadMatrixFile(recordedMatrixPath); err == nil {
		problems = append(problems, problem{"recorded", traffic})
	} else {
		log.Printf("placement: recorded matrix skipped (%v); run from the repo root to include it", err)
	}
	for _, p := range []int{256, 1024} {
		problems = append(problems, problem{"synthetic", syntheticTraffic(p)})
	}
	var out []placementResult
	for _, prob := range problems {
		p := len(prob.traffic)
		x, y, z := topo.Balanced3D(p, 1)
		tor, err := topo.NewTorus(x, y, z, 1)
		if err != nil {
			log.Fatalf("placement p=%d: %v", p, err)
		}
		ev, err := place.NewEvaluator(prob.traffic, tor)
		if err != nil {
			log.Fatalf("placement p=%d: %v", p, err)
		}
		idCost := ev.Cost(ev.Identity())
		for _, s := range place.Searchers() {
			t0 := time.Now()
			perm := s.Search(ev, 42)
			elapsed := time.Since(t0)
			cost := ev.Cost(perm)
			res := placementResult{
				Source: prob.source, Ranks: p, Algorithm: s.Name(),
				SearchNs: float64(elapsed.Nanoseconds()), HopBytes: cost,
				Improvement: 1 - cost/idCost,
			}
			fmt.Printf("%-28s %14v search %16.0f hopB %7.1f%% better\n",
				fmt.Sprintf("place %s p=%d %s", prob.source, p, s.Name()),
				elapsed.Round(time.Microsecond), cost, 100*res.Improvement)
			out = append(out, res)
		}
	}
	return out
}

// fillPlacement exposes the placement measurements in the flat metric
// namespace: search_ns gates worse-if-up (loosely — wall time), while
// the improvements are deterministic and must reproduce exactly.
func fillPlacement(rs []placementResult, m map[string]float64) {
	for _, r := range rs {
		pre := fmt.Sprintf("place.p%d.%s.", r.Ranks, r.Algorithm)
		m[pre+"search_ns"] = r.SearchNs
		m[pre+"hop_improvement"] = r.Improvement
	}
}

// recorderOverhead times the all-pairs loop unobserved, observed, and
// observed-with-recording. The marginal recording cost — one fixed-size
// sample stamped by rank 0 per step, runtime health read off the hot
// path — should be well under 1% of an observed step; the observed
// column also carries the timeline/metrics/matrix instrumentation the
// recorder rides on.
func recorderOverhead() *recorderOverheadResult {
	const n, p, c, steps, reps = 512, 8, 2, 30, 5
	pr := core.Params{
		P:     p,
		C:     c,
		Law:   phys.DefaultLaw(),
		Box:   phys.NewBox(10, 2, phys.Reflective),
		DT:    1e-3,
		Steps: steps,
	}
	ps := phys.InitUniform(n, pr.Box, 37)
	runWith := func(observe, rec bool) func() {
		return func() {
			run := pr
			if observe {
				o := obs.NewObserver(p, 0)
				o.Timeline.SetPhaseNames(trace.PhaseNames())
				o.EnsureMatrix(len(trace.PhaseNames()), p)
				run.Options.Observe = o
			}
			if rec {
				run.Record = record.New(record.Meta{
					Algorithm: "allpairs", N: n, P: p, C: c, Dim: 2,
					Phases: trace.PhaseNames(),
				}, steps)
			}
			if _, _, err := core.AllPairs(ps, run); err != nil {
				log.Fatal(err)
			}
		}
	}
	res := &recorderOverheadResult{
		Algorithm: "allpairs", Particles: n, Ranks: p, Replication: c, Steps: steps,
		OffNsPerStep:       medianStepTime(steps, reps, runWith(false, false)),
		ObservedNsPerStep:  medianStepTime(steps, reps, runWith(true, false)),
		RecordingNsPerStep: medianStepTime(steps, reps, runWith(true, true)),
	}
	if res.ObservedNsPerStep > 0 {
		res.OverheadFrac = (res.RecordingNsPerStep - res.ObservedNsPerStep) / res.ObservedNsPerStep
	}
	fmt.Printf("%-28s off %10.1f  observed %10.1f  recording %10.1f ns/step  (marginal %+.2f%%)\n",
		"recorder overhead", res.OffNsPerStep, res.ObservedNsPerStep, res.RecordingNsPerStep,
		100*res.OverheadFrac)
	return res
}

// timeAllPairs measures the per-step wall time of a full AllPairs run at
// laptop scale (zero-allocation steady state, specialized kernels).
func timeAllPairs() stepResult {
	const n, p, c, steps = 512, 8, 2, 20
	pr := core.Params{
		P:     p,
		C:     c,
		Law:   phys.DefaultLaw(),
		Box:   phys.NewBox(10, 2, phys.Reflective),
		DT:    1e-3,
		Steps: steps,
	}
	ps := phys.InitUniform(n, pr.Box, 11)
	t0 := time.Now()
	if _, _, err := core.AllPairs(ps, pr); err != nil {
		log.Fatal(err)
	}
	wall := float64(time.Since(t0).Nanoseconds()) / steps
	fmt.Printf("%-28s %14.1f ns/step\n", "allpairs n=512 p=8 c=2", wall)
	return stepResult{Algorithm: "allpairs", Particles: n, Ranks: p, Replication: c, Steps: steps, WallNsPerStep: wall}
}

// timeCutoff measures the per-step wall time of the distance-limited
// algorithm with its framed exchange pipeline. 1D: the 4-team
// decomposition is too coarse for a 2D cutoff window.
func timeCutoff() stepResult {
	const n, p, c, steps = 512, 8, 2, 20
	box := phys.NewBox(16, 1, phys.Periodic)
	pr := core.Params{
		P:     p,
		C:     c,
		Law:   phys.DefaultLaw().WithCutoff(box.L / 4),
		Box:   box,
		DT:    5e-4,
		Steps: steps,
	}
	ps := phys.InitLattice(n, box, 11)
	t0 := time.Now()
	if _, _, err := core.Cutoff(ps, pr); err != nil {
		log.Fatal(err)
	}
	wall := float64(time.Since(t0).Nanoseconds()) / steps
	fmt.Printf("%-28s %14.1f ns/step\n", "cutoff n=512 p=8 c=2", wall)
	return stepResult{Algorithm: "cutoff", Particles: n, Ranks: p, Replication: c, Steps: steps, WallNsPerStep: wall}
}

// medianStepTime runs run() reps times and returns the median per-step
// wall time in nanoseconds. The median (not the mean or the min) keeps
// a single descheduled run from poisoning the comparison either way.
func medianStepTime(steps, reps int, run func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		run()
		times[i] = float64(time.Since(t0).Nanoseconds()) / float64(steps)
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// benchTileKernels times the tile-width × kernel grid: the kernels that
// compact, at every explicit tile width on the same batch, against the
// classic untiled loop (tile = -1) as baseline. All cells compute
// bit-identical forces — tiling pins accumulation to source order — so
// the grid is a pure speed surface. The flavors that must add for every
// pair are not in it: their tiled forms lost to the classic loops at
// every width (BENCH_PR8.json has the rows) and are gone. On a host
// where phys.KernelImpl is not "portable" the rep_cut_in row is flat, because
// the vector sweep replaces that loop at every tile setting; build with
// -tags purego to time its compaction loop.
func benchTileKernels(targets, sources []phys.Particle, box phys.Box) []tileKernelResult {
	tiles := []int{-1, 1, 8, 16, 32, 64}
	kernels := []struct {
		name string
		law  phys.Law
	}{
		{"rep_cut_in", phys.Law{Kind: phys.Repulsive, K: 1.3, Softening: 1e-3, Cutoff: 0.9}},
		{"lj_cut_in", phys.LJLaw(0.7, 0.4).WithCutoff(0.9)},
	}
	var out []tileKernelResult
	for _, kc := range kernels {
		var base float64
		for _, tile := range tiles {
			kern := kc.law.Kernel().WithTile(tile)
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kern.AccumulateIn(targets, sources, box)
				}
			})
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if tile < 0 {
				base = ns
			}
			res := tileKernelResult{Name: kc.name, Tile: tile, NsPerOp: ns, Speedup: base / ns}
			label := fmt.Sprintf("%s tile=%d", kc.name, tile)
			if tile < 0 {
				label = fmt.Sprintf("%s untiled", kc.name)
			}
			fmt.Printf("%-28s %12d iters %14.1f ns/op %8.2fx\n", label, r.N, ns, res.Speedup)
			out = append(out, res)
		}
	}
	return out
}

// tileWidths are the source-tile widths the invariance check sweeps
// against the default (0, the tuned width): a degenerate tile, an odd
// width that exercises every unroll tail, and the cap.
var tileWidths = []int{1, 7, 64}

// checkTileInvariance runs each algorithm across kernel tile widths and
// fails the process unless every width reproduces the default-width
// final state bitwise with identical per-phase message/byte counts —
// the tiling determinism contract (the tile-size analogue of
// checkWorkerInvariance, which gates the same property for pool
// widths).
func checkTileInvariance() {
	type cfg struct {
		name string
		run  func(tile int) ([]phys.Particle, *trace.Report)
	}
	apBox := phys.NewBox(10, 2, phys.Reflective)
	cutBox := phys.NewBox(16, 1, phys.Periodic)
	midBox := phys.NewBox(16, 2, phys.Reflective)
	configs := []cfg{
		{"allpairs p=4 c=2", func(tw int) ([]phys.Particle, *trace.Report) {
			pr := core.Params{P: 4, C: 2, Law: phys.DefaultLaw(), Box: apBox, DT: 1e-3, Steps: 4, Workers: 2, Tile: tw}
			ps, rep, err := core.AllPairs(phys.InitUniform(64, apBox, 41), pr)
			if err != nil {
				log.Fatalf("tile invariance allpairs tile=%d: %v", tw, err)
			}
			return ps, rep
		}},
		{"cutoff p=8 c=2", func(tw int) ([]phys.Particle, *trace.Report) {
			pr := core.Params{P: 8, C: 2, Law: phys.DefaultLaw().WithCutoff(cutBox.L / 4), Box: cutBox, DT: 5e-4, Steps: 4, Workers: 2, Tile: tw}
			ps, rep, err := core.Cutoff(phys.InitLattice(128, cutBox, 41), pr)
			if err != nil {
				log.Fatalf("tile invariance cutoff tile=%d: %v", tw, err)
			}
			return ps, rep
		}},
		{"midpoint p=9", func(tw int) ([]phys.Particle, *trace.Report) {
			pr := core.Params{P: 9, C: 1, Law: phys.DefaultLaw().WithCutoff(4), Box: midBox, DT: 5e-4, Steps: 4, Workers: 2, Tile: tw}
			ps, rep, err := core.Midpoint2D(phys.InitLattice(128, midBox, 41), pr)
			if err != nil {
				log.Fatalf("tile invariance midpoint tile=%d: %v", tw, err)
			}
			return ps, rep
		}},
	}
	for _, c := range configs {
		want, wantRep := c.run(0)
		for _, tw := range tileWidths {
			got, gotRep := c.run(tw)
			for i := range want {
				if got[i] != want[i] {
					log.Fatalf("FAIL: %s tile=%d diverges from the default width at particle %d", c.name, tw, i)
				}
			}
			if !sameComm(wantRep, gotRep) {
				log.Fatalf("FAIL: %s tile=%d changed per-phase message/byte counts", c.name, tw)
			}
		}
	}
	fmt.Println("tile invariance: final states bitwise-identical, S/W unchanged (allpairs, cutoff, midpoint)")
}

// poolWidths are the worker-pool widths every pool comparison sweeps.
var poolWidths = []int{1, 2, 4}

// benchWorkerKernels times one LJ-cutoff Accumulate batch tiled across
// pools of each width — the isolated force-phase speedup, free of
// communication. The batch is large (1024 targets) so tiles dominate
// dispatch overhead.
func benchWorkerKernels() []workerKernelResult {
	box := phys.NewBox(3, 2, phys.Periodic)
	targets := phys.InitUniform(1024, box, 21)
	sources := phys.InitUniform(1024, box, 22)
	for i := range sources {
		sources[i].ID += uint32(len(targets))
	}
	kern := phys.LJLaw(0.7, 0.4).WithCutoff(0.9).Kernel()
	var out []workerKernelResult
	var base float64
	for _, w := range poolWidths {
		pool := phys.NewPool(w)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool.Accumulate(kern, targets, sources)
			}
		})
		pool.Close()
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if w == 1 {
			base = ns
		}
		res := workerKernelResult{Name: "pool_accumulate", Workers: w, NsPerOp: ns, Speedup: base / ns}
		fmt.Printf("%-28s %12d iters %14.1f ns/op %8.2fx\n",
			fmt.Sprintf("pool_accumulate w=%d", w), r.N, ns, res.Speedup)
		out = append(out, res)
	}
	return out
}

// workerScaling times end-to-end all-pairs runs over the rank×worker
// grid: the single-rank column isolates the pool's force-phase win, the
// multi-rank column shows how it composes with the decomposition.
func workerScaling() []workerScalingResult {
	const n, steps, reps = 512, 10, 3
	var out []workerScalingResult
	for _, p := range []int{1, 4} {
		var base float64
		for _, w := range poolWidths {
			pr := core.Params{
				P:       p,
				C:       1,
				Law:     phys.DefaultLaw(),
				Box:     phys.NewBox(10, 2, phys.Reflective),
				DT:      1e-3,
				Steps:   steps,
				Workers: w,
			}
			ps := phys.InitUniform(n, pr.Box, 23)
			wall := medianStepTime(steps, reps, func() {
				if _, _, err := core.AllPairs(ps, pr); err != nil {
					log.Fatal(err)
				}
			})
			if w == 1 {
				base = wall
			}
			res := workerScalingResult{
				Algorithm: "allpairs", Particles: n, Ranks: p, Workers: w, Steps: steps,
				WallNsPerStep: wall, Speedup: base / wall,
			}
			fmt.Printf("%-28s %14.1f ns/step %8.2fx\n",
				fmt.Sprintf("allpairs n=%d p=%d w=%d", n, p, w), wall, res.Speedup)
			out = append(out, res)
		}
	}
	return out
}

// checkWorkerInvariance runs each algorithm across the pool widths and
// fails the process unless every width reproduces the workers=1 final
// state bitwise with identical per-phase message/byte counts — the
// pool's determinism contract, and the proof that tiling changes
// neither the physics nor the measured S/W.
func checkWorkerInvariance() {
	type cfg struct {
		name string
		run  func(workers int) ([]phys.Particle, *trace.Report)
	}
	apBox := phys.NewBox(10, 2, phys.Reflective)
	cutBox := phys.NewBox(16, 1, phys.Periodic)
	midBox := phys.NewBox(16, 2, phys.Reflective)
	configs := []cfg{
		{"allpairs p=4 c=2", func(w int) ([]phys.Particle, *trace.Report) {
			pr := core.Params{P: 4, C: 2, Law: phys.DefaultLaw(), Box: apBox, DT: 1e-3, Steps: 4, Workers: w}
			ps, rep, err := core.AllPairs(phys.InitUniform(64, apBox, 29), pr)
			if err != nil {
				log.Fatalf("worker invariance allpairs w=%d: %v", w, err)
			}
			return ps, rep
		}},
		{"cutoff p=8 c=2", func(w int) ([]phys.Particle, *trace.Report) {
			pr := core.Params{P: 8, C: 2, Law: phys.DefaultLaw().WithCutoff(cutBox.L / 4), Box: cutBox, DT: 5e-4, Steps: 4, Workers: w}
			ps, rep, err := core.Cutoff(phys.InitLattice(128, cutBox, 29), pr)
			if err != nil {
				log.Fatalf("worker invariance cutoff w=%d: %v", w, err)
			}
			return ps, rep
		}},
		{"midpoint p=9", func(w int) ([]phys.Particle, *trace.Report) {
			pr := core.Params{P: 9, C: 1, Law: phys.DefaultLaw().WithCutoff(4), Box: midBox, DT: 5e-4, Steps: 4, Workers: w}
			ps, rep, err := core.Midpoint2D(phys.InitLattice(128, midBox, 29), pr)
			if err != nil {
				log.Fatalf("worker invariance midpoint w=%d: %v", w, err)
			}
			return ps, rep
		}},
	}
	for _, c := range configs {
		want, wantRep := c.run(1)
		for _, w := range poolWidths[1:] {
			got, gotRep := c.run(w)
			for i := range want {
				if got[i] != want[i] {
					log.Fatalf("FAIL: %s workers=%d diverges from workers=1 at particle %d", c.name, w, i)
				}
			}
			if !sameComm(wantRep, gotRep) {
				log.Fatalf("FAIL: %s workers=%d changed per-phase message/byte counts", c.name, w)
			}
		}
	}
	fmt.Println("worker invariance: final states bitwise-identical, S/W unchanged (allpairs, cutoff, midpoint)")
}

// checkHTTPSmoke gates the live telemetry hub: it runs an observed,
// recorded all-pairs simulation with the hub serving, scrapes /metrics,
// /trace and /series.json while the run is in flight (all must stay
// well-formed mid-run), then checks the final /matrix.json and the full
// step series both conserve traffic exactly — per phase, the summed
// cells (matrix) and the summed per-step deltas (series) must equal the
// report's summed sent/received messages and bytes, bitwise.
func checkHTTPSmoke() {
	const n, p, c, steps = 256, 4, 2, 40
	o := obs.NewObserver(p, 0)
	o.Timeline.SetPhaseNames(trace.PhaseNames())
	o.EnsureMatrix(len(trace.PhaseNames()), p)
	rec := record.New(record.Meta{
		Algorithm: "allpairs", N: n, P: p, C: c, Dim: 2,
		Phases: trace.PhaseNames(),
	}, steps)
	hub := live.New(o)
	hub.AttachRecorder(rec)
	addr, err := hub.Start("localhost:0")
	if err != nil {
		log.Fatalf("FAIL: httpsmoke: %v", err)
	}
	defer hub.Close()
	base := "http://" + addr

	pr := core.Params{
		P: p, C: c, Law: phys.DefaultLaw(),
		Box: phys.NewBox(10, 2, phys.Reflective), DT: 1e-3, Steps: steps,
	}
	pr.Options.Observe = o
	pr.Record = rec
	ps := phys.InitUniform(n, pr.Box, 31)

	type runResult struct {
		rep *trace.Report
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		_, rep, err := core.AllPairs(ps, pr)
		done <- runResult{rep, err}
	}()

	// Mid-run scrapes: every response must be well-formed while the
	// ranks are still exchanging. The loop polls until the run finishes,
	// so at least the final iteration always executes.
	scrape := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			log.Fatalf("FAIL: httpsmoke GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatalf("FAIL: httpsmoke GET %s: %v", path, err)
		}
		return string(body)
	}
	checkOnce := func() {
		metrics := scrape("/metrics")
		if !strings.Contains(metrics, "# TYPE") {
			log.Fatalf("FAIL: httpsmoke /metrics has no exposition lines:\n%s", metrics)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(scrape("/trace")), &doc); err != nil {
			log.Fatalf("FAIL: httpsmoke /trace is not valid Chrome-trace JSON: %v", err)
		}
		var snap map[string]any
		if err := json.Unmarshal([]byte(scrape("/snapshot.json")), &snap); err != nil {
			log.Fatalf("FAIL: httpsmoke /snapshot.json: %v", err)
		}
		var series live.SeriesDoc
		if err := json.Unmarshal([]byte(scrape("/series.json")), &series); err != nil {
			log.Fatalf("FAIL: httpsmoke /series.json: %v", err)
		}
		if int64(len(series.Samples)) > series.Total {
			log.Fatalf("FAIL: httpsmoke /series.json returned %d samples of %d total", len(series.Samples), series.Total)
		}
	}
	var rr runResult
	scrapes := 0
poll:
	for {
		select {
		case rr = <-done:
			break poll
		default:
			checkOnce()
			scrapes++
		}
	}
	if rr.err != nil {
		log.Fatalf("FAIL: httpsmoke run: %v", rr.err)
	}
	checkOnce() // final state must scrape cleanly too

	finalMetrics := scrape("/metrics")
	for _, want := range []string{"comm_s_measured", "comm_s_lowerbound", "comm_w_measured", "comm_w_lowerbound"} {
		if !strings.Contains(finalMetrics, want) {
			log.Fatalf("FAIL: httpsmoke /metrics missing %s", want)
		}
	}

	var mat obs.MatrixSnapshot
	if err := json.Unmarshal([]byte(scrape("/matrix.json")), &mat); err != nil {
		log.Fatalf("FAIL: httpsmoke /matrix.json: %v", err)
	}
	sum2 := func(cells [][]int64) int64 {
		var t int64
		for _, row := range cells {
			for _, v := range row {
				t += v
			}
		}
		return t
	}
	for _, ph := range mat.Phases {
		want := rr.rep.Sum[trace.Phase(ph.Phase)]
		if got := sum2(ph.SentMsgs); got != want.Messages {
			log.Fatalf("FAIL: httpsmoke matrix %s sent msgs %d != report %d", ph.Name, got, want.Messages)
		}
		if got := sum2(ph.SentBytes); got != want.Bytes {
			log.Fatalf("FAIL: httpsmoke matrix %s sent bytes %d != report %d", ph.Name, got, want.Bytes)
		}
		if got := sum2(ph.RecvMsgs); got != want.RecvMessages {
			log.Fatalf("FAIL: httpsmoke matrix %s recv msgs %d != report %d", ph.Name, got, want.RecvMessages)
		}
		if got := sum2(ph.RecvBytes); got != want.RecvBytes {
			log.Fatalf("FAIL: httpsmoke matrix %s recv bytes %d != report %d", ph.Name, got, want.RecvBytes)
		}
	}
	// The step series must also conserve traffic: each sample carries
	// per-phase deltas, so summing a column across all steps must land
	// exactly on the report's end-of-run totals.
	var series live.SeriesDoc
	if err := json.Unmarshal([]byte(scrape("/series.json")), &series); err != nil {
		log.Fatalf("FAIL: httpsmoke final /series.json: %v", err)
	}
	if series.Total != steps || len(series.Samples) != steps {
		log.Fatalf("FAIL: httpsmoke /series.json has %d samples (total %d), want %d",
			len(series.Samples), series.Total, steps)
	}
	for ph, name := range series.Meta.Phases {
		var sm, sb, rm, rb int64
		for _, s := range series.Samples {
			if ph < len(s.SentMsgs) {
				sm += s.SentMsgs[ph]
				sb += s.SentBytes[ph]
				rm += s.RecvMsgs[ph]
				rb += s.RecvBytes[ph]
			}
		}
		want := rr.rep.Sum[trace.Phase(ph)]
		if sm != want.Messages || sb != want.Bytes || rm != want.RecvMessages || rb != want.RecvBytes {
			log.Fatalf("FAIL: httpsmoke series %s sums (%d msgs, %d B sent; %d msgs, %d B recv) != report (%d, %d; %d, %d)",
				name, sm, sb, rm, rb, want.Messages, want.Bytes, want.RecvMessages, want.RecvBytes)
		}
	}
	fmt.Printf("live telemetry: %d mid-run scrapes well-formed, matrix and %d-step series conserve report traffic across %d phases\n",
		scrapes, steps, len(mat.Phases))
}

// sameComm reports whether two runs produced identical per-phase
// message and byte counts (critical-path and summed; time excluded —
// it is the one thing pooling is meant to change).
func sameComm(a, b *trace.Report) bool {
	counts := func(s trace.PhaseStats) [4]int64 {
		return [4]int64{s.Messages, s.Bytes, s.RecvMessages, s.RecvBytes}
	}
	for _, p := range trace.Phases() {
		if counts(a.CriticalPath[p]) != counts(b.CriticalPath[p]) ||
			counts(a.Sum[p]) != counts(b.Sum[p]) {
			return false
		}
	}
	return true
}
