package nbody

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// goldenRun is one pinned run: a configuration (Seed 1 throughout), the
// FNV-64a of the final state's wire encoding after goldenSteps steps,
// the report's critical-path S (message events) and W (bytes), which
// count both endpoints, and the critical-path sent messages and bytes
// of the five communication phases in trace.CommPhases order
// (broadcast, skew, shift, reduce, reassign).
type goldenRun struct {
	name   string
	cfg    Config
	socket bool // run across a 2-proc unix-socket mesh hosted in the test
	want   goldenCounts
}

type goldenCounts struct {
	sum    uint64
	s, w   int64
	phases [5][2]int64
}

const goldenSteps = 6

// The first five rows are the configurations of benchmark/workloads.go
// (copied: benchmark/ is its own module, and ap-socket is ap-latency's
// configuration over the socket mesh), then a 2D cutoff run whose
// particles migrate (uniform, not a lattice), the fixed-c
// decompositions, an all-pairs run at c = 3 — a team that is no power
// of two, whose allreduce reduces to the leader and broadcasts the
// total — and ap-latency's configuration under a cutoff law in a
// periodic box — the all-pairs loop's traffic does not depend on the
// law.
var goldenRuns = []goldenRun{
	{name: "ap-compute", cfg: Config{N: 4096, P: 4, C: 2},
		want: goldenCounts{sum: 0x340ea1f20ea1b083, s: 24, w: 1671168, phases: [5][2]int64{{0, 0}, {6, 638976}, {0, 0}, {6, 196608}, {0, 0}}}},
	{name: "ap-latency", cfg: Config{N: 256, P: 64, C: 2},
		want: goldenCounts{sum: 0xcd18d59597b848e5, s: 216, w: 86400, phases: [5][2]int64{{0, 0}, {6, 2496}, {96, 39936}, {6, 768}, {0, 0}}}},
	{name: "ap-socket", cfg: Config{N: 256, P: 64, C: 2}, socket: true,
		want: goldenCounts{sum: 0xcd18d59597b848e5, s: 216, w: 86400, phases: [5][2]int64{{0, 0}, {6, 2496}, {96, 39936}, {6, 768}, {0, 0}}}},
	{name: "cutoff-small", cfg: Config{N: 512, P: 8, C: 2, Dim: 1, Boundary: Periodic, Cutoff: 4, Lattice: true, DT: 5e-4},
		want: goldenCounts{sum: 0x5d76f184ce724d19, s: 60, w: 184416, phases: [5][2]int64{{0, 0}, {6, 39960}, {6, 39960}, {6, 12288}, {12, 0}}}},
	{name: "cutoff-2d", cfg: Config{N: 4096, P: 64, C: 4, Dim: 2, Boundary: Reflective, Cutoff: 4, Lattice: true, DT: 5e-4},
		want: goldenCounts{sum: 0x15a3b1503f2d5745, s: 108, w: 577680, phases: [5][2]int64{{0, 0}, {6, 79896}, {12, 159792}, {12, 49152}, {24, 0}}}},
	{name: "cutoff-2d-migrating", cfg: Config{N: 1024, P: 64, C: 4, Dim: 2, Cutoff: 4, DT: 2e-3},
		want: goldenCounts{sum: 0x132ed4edcd192330, s: 108, w: 176424, phases: [5][2]int64{{0, 0}, {6, 25712}, {12, 46640}, {12, 15808}, {24, 52}}}},
	{name: "force-decomp", cfg: Config{N: 256, P: 16, Algorithm: ForceDecomp},
		want: goldenCounts{sum: 0x2a3884267b4451ff, s: 36, w: 64512, phases: [5][2]int64{{0, 0}, {6, 19968}, {0, 0}, {12, 12288}, {0, 0}}}},
	{name: "particle-decomp", cfg: Config{N: 256, P: 16, Algorithm: ParticleDecomp},
		want: goldenCounts{sum: 0xf35558c555cbf215, s: 192, w: 159744, phases: [5][2]int64{{0, 0}, {0, 0}, {96, 79872}, {0, 0}, {0, 0}}}},
	{name: "naive", cfg: Config{N: 256, P: 16, Algorithm: NaiveAllGather},
		want: goldenCounts{sum: 0x43ec4bc838318d90, s: 180, w: 150480, phases: [5][2]int64{{0, 0}, {0, 0}, {90, 75240}, {0, 0}, {0, 0}}}},
	{name: "ap-c3", cfg: Config{N: 216, P: 9, C: 3},
		want: goldenCounts{sum: 0xb3a64ec6addd1775, s: 36, w: 72576, phases: [5][2]int64{{0, 0}, {6, 22464}, {0, 0}, {12, 13824}, {0, 0}}}},
	{name: "ap-periodic-cutoff", cfg: Config{N: 256, P: 64, C: 2, Algorithm: CAAllPairs, Boundary: Periodic, Cutoff: 4},
		want: goldenCounts{sum: 0x92dfbddd2d90f27f, s: 216, w: 86400, phases: [5][2]int64{{0, 0}, {6, 2496}, {96, 39936}, {6, 768}, {0, 0}}}},
}

// TestGoldenStateAndTraffic is the invariance gate of the timestep
// drivers: the exact final bits and the exact per-phase critical-path
// traffic of every loop variant, pinned as constants. A refactor of
// internal/core that keeps this test green has kept every rank's
// arithmetic order and every rank's message sizes and phases. The
// values hold for the default and the purego build alike (the AVX2
// sweeps are bit-identical to the Go loops); off amd64 the compiler may
// fuse multiply-adds, so the state hashes are not portable there.
func TestGoldenStateAndTraffic(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("state hashes are pinned for amd64 (no FMA fusion)")
	}
	for _, g := range goldenRuns {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			g.cfg.Seed = 1
			sim, err := goldenSim(g)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(phys.AppendSlice(nil, sim.Particles()))
			rep := sim.Report()
			got := goldenCounts{sum: h.Sum64(), s: rep.S(), w: rep.W()}
			for i, ph := range trace.CommPhases() {
				got.phases[i] = [2]int64{rep.CriticalPath[ph].Messages, rep.CriticalPath[ph].Bytes}
			}
			if got != g.want {
				t.Errorf("got  %v\nwant %v", got, g.want)
			}
		})
	}
}

// String prints the counts as the Go literal goldenRuns holds.
func (c goldenCounts) String() string {
	s := fmt.Sprintf("goldenCounts{sum: %#016x, s: %d, w: %d, phases: [5][2]int64{", c.sum, c.s, c.w)
	for i, v := range c.phases {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%d, %d}", v[0], v[1])
	}
	return s + "}}"
}

// goldenSim builds g's simulation and advances it goldenSteps steps,
// in-process or — collectively, one Simulation per proc — across a
// two-proc unix-socket mesh, returning proc 0's.
func goldenSim(g goldenRun) (*Simulation, error) {
	if !g.socket {
		sim, err := New(g.cfg)
		if err != nil {
			return nil, err
		}
		return sim, sim.Run(goldenSteps)
	}
	// A unix socket path is capped near 108 bytes: keep it short.
	dir, err := os.MkdirTemp("", "gold")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, err := ListenProcs("unix:"+filepath.Join(dir, "r"), 2, g.cfg.P/2)
	if err != nil {
		return nil, err
	}
	var mesh [2]*ProcGroup
	joined := make(chan error, 1)
	go func() {
		var err error
		mesh[1], err = JoinProcs(l.Addr(), 2, g.cfg.P/2)
		joined <- err
	}()
	mesh[0], err = l.Accept()
	if jerr := <-joined; err == nil {
		err = jerr
	}
	for _, pg := range mesh {
		if pg != nil {
			defer pg.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	var sims [2]*Simulation
	on := func(i int) error {
		cfg := g.cfg
		cfg.Proc = mesh[i]
		var err error
		if sims[i], err = New(cfg); err != nil {
			return err
		}
		return sims[i].Run(goldenSteps)
	}
	follower := make(chan error, 1)
	go func() { follower <- on(1) }()
	err = on(0)
	if ferr := <-follower; err == nil {
		err = ferr
	}
	return sims[0], err
}
