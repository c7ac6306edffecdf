//go:build !obsdebug

// The zero-allocation claim is a release-build property: obsdebug
// builds deliberately allocate in the Stats ownership guard, so these
// guards only run without the tag.

package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/phys"
	"repro/internal/topo"
)

// runMallocs returns the number of heap objects one call of run
// allocates, with the Go runtime's own schedule-dependent allocations
// taken out of the picture. The runtime keeps its free goroutine and
// sudog (blocked-channel-operation) records in per-P caches and
// allocates a fresh one whenever the P that needs one has none: which
// P, and how many goroutines are alive or blocked at once, is the
// schedule's doing, not the code's, and a collection starting mid-run
// empties the shared caches and schedules its own workers. So, like
// testing.AllocsPerRun, measure on a single P after a warm-up call —
// and also hold the collector off, and first park more goroutines at
// once than any run here has, which leaves that many goroutine and
// sudog records on the one P's free lists. What is left is the
// program's own allocations, which are deterministic, plus the odd
// object from a runtime background goroutine (the scavenger growing its
// P's timer heap was caught doing it); that noise only ever adds, so
// the minimum of three measurements is the program's count.
func runMallocs(run func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	idle := runtime.NumGoroutine()
	var parked sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 256; i++ {
		parked.Add(1)
		go func() {
			defer parked.Done()
			<-gate
		}()
	}
	close(gate)
	parked.Wait()
	run()
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		// Goroutines signal completion a few instructions before they
		// exit; one still on its way out is not yet on the free list.
		for end := time.Now().Add(time.Second); runtime.NumGoroutine() > idle && time.Now().Before(end); {
			runtime.Gosched()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.Mallocs-m0.Mallocs)
	}
	return best
}

// TestSteadyStateAllocFree pins the end-to-end zero-allocation property
// of the timestep loops: once a run's retained buffers exist, a step
// allocates nothing anywhere in the pipeline — broadcast, skew, shifts,
// force kernel (inline, pooled), reduce, integrate and, for the cutoff
// loop in one and two dimensions, spatial reassignment; nor, in the
// midpoint method, import, staged sweep, force return or reassignment.
// Two runs that differ only in step count must therefore allocate
// exactly the same number of objects:
// per-run set-up (communicators, mailboxes of the pairs used, pool and
// worker goroutines, first-step buffer growth) is identical in both,
// and ten extra steps must add zero. The guard is an equality, not a
// bound: a long run allocating *less* would mean the set-up is not what
// we think it is.
func TestSteadyStateAllocFree(t *testing.T) {
	const c, n = 2, 32
	type loop int
	const (
		allpairs loop = iota
		cutoff
		cutoff2D
		midpoint1D
		midpoint2D
	)
	for _, tc := range []struct {
		name    string
		loop    loop
		workers int
	}{
		{"allpairs", allpairs, 1},
		{"allpairs/workers=2", allpairs, 2},
		{"cutoff", cutoff, 1},
		{"cutoff/workers=2", cutoff, 2},
		{"cutoff2D", cutoff2D, 1},
		{"cutoff2D/workers=2", cutoff2D, 2},
		{"midpoint1D", midpoint1D, 1},
		{"midpoint1D/workers=2", midpoint1D, 2},
		{"midpoint2D", midpoint2D, 1},
	} {
		run := func(steps int) func() {
			return func() {
				var err error
				switch tc.loop {
				case cutoff:
					// 8 ranks: the 1D cutoff window needs at least 3 teams.
					pr := cutoffParams(8, c, 1, phys.Periodic)
					pr.Steps, pr.Workers = steps, tc.workers
					_, _, err = Cutoff(phys.InitLattice(n, pr.Box, 5), pr)
				case cutoff2D:
					// 32 ranks: a 4 × 4 team grid holds the 3 × 3 window.
					pr := cutoffParams(32, c, 2, phys.Reflective)
					pr.Steps, pr.Workers = steps, tc.workers
					_, _, err = Cutoff(phys.InitLattice(4*n, pr.Box, 5), pr)
				case midpoint1D:
					pr := cutoffParams(8, 1, 1, phys.Reflective)
					pr.Steps, pr.Workers = steps, tc.workers
					_, _, err = Midpoint1D(phys.InitLattice(n, pr.Box, 5), pr)
				case midpoint2D:
					pr := cutoffParams(16, 1, 2, phys.Reflective)
					pr.Steps, pr.Workers = steps, tc.workers
					_, _, err = Midpoint2D(phys.InitLattice(2*n, pr.Box, 5), pr)
				default:
					pr := defaultParams(4, c, steps)
					pr.Workers = tc.workers
					_, _, err = AllPairs(phys.InitUniform(n, pr.Box, 5), pr)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		base := runMallocs(run(2))
		long := runMallocs(run(12))
		if long != base {
			t.Errorf("%s: a 12-step run allocated %d objects, a 2-step run %d; 10 extra steps must allocate 0", tc.name, long, base)
		}
	}
}

// TestMigratorRecyclesBuffers drives the reassignment buffers directly,
// on a conveyor: every step every particle crosses into the next team,
// so each leader ships its whole set one way and adopts its neighbor's.
// (The lattice runs above never migrate; this is the opposite extreme.)
// After the first two steps — which allocate the two team buffers and
// the first payloads — the payload received in one step must be the
// send buffer of the next and the team buffers must alternate, so more
// steps allocate nothing; and every leader must hold exactly the
// particles that have travelled to it.
func TestMigratorRecyclesBuffers(t *testing.T) {
	const teams, per = 4, 6
	box := phys.NewBox(16, 1, phys.Periodic)
	tg, err := topo.NewTeamGrid(teams, 1)
	if err != nil {
		t.Fatal(err)
	}
	width := box.L / teams
	dirs := migrationDirs(1)
	conveyor := func(steps int) func() {
		return func() {
			_, err := comm.Run(teams, comm.Options{}, func(leaders *comm.Comm) error {
				team := leaders.Rank()
				mine := make([]phys.Particle, per)
				for i := range mine {
					mine[i].ID = uint32(team*per + i)
					mine[i].Pos.X = (float64(team) + 0.5) * width
				}
				x := newXfer(Params{}, team, false)
				var mig migrator
				for step := 0; step < steps; step++ {
					for i := range mine {
						mine[i].Pos.X = math.Mod(mine[i].Pos.X+width, box.L)
					}
					var err error
					if mine, err = mig.migrate(x, leaders, tg, team, mine, box, dirs, true); err != nil {
						return err
					}
				}
				origin := topo.Mod(team-steps, teams)
				for i := range mine {
					if len(mine) != per || mine[i].ID != uint32(origin*per+i) {
						return fmt.Errorf("team %d after %d steps holds %d particles, particle %d has ID %d; want team %d's %d in ID order",
							team, steps, len(mine), i, mine[i].ID, origin, per)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	base := runMallocs(conveyor(3))
	long := runMallocs(conveyor(23))
	if long != base {
		t.Errorf("a 23-step conveyor allocated %d objects, a 3-step one %d; 20 extra steps must allocate 0", long, base)
	}
}

// TestSocketSteadyStateAllocBound is the steady-state guard of the
// socket path: a 2×4 all-pairs grid split row by row over a unix-socket
// mesh, so every step sends four team broadcasts and four force
// reductions across the wire. Frames are encoded into the link's
// recycled buffers, decoded straight out of its read buffer into slices
// the receiving collectives hand back, and counted in per-rank tallies
// whose cells all exist after the first step — so, as in process, ten
// more steps should allocate nothing. The guard is a bound rather than
// an equality because the mesh brings the netpoller and four goroutines
// that outlive the measured call into the picture: an arriving frame
// that finds its mailbox full is delivered by a goroutine of its own,
// and how often that happens is the scheduler's doing.
func TestSocketSteadyStateAllocBound(t *testing.T) {
	const procs, extra, perStep = 2, 10, 1
	pr := defaultParams(8, 2, 0)
	ps := phys.InitUniform(32, pr.Box, 5)
	dir, err := os.MkdirTemp("", "mesh")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	l, err := comm.ListenProcs("unix:"+filepath.Join(dir, "r"), procs, pr.P/procs)
	if err != nil {
		t.Fatal(err)
	}
	var mesh [procs]*comm.Proc
	joined := make(chan error, 1)
	go func() {
		var err error
		mesh[1], err = comm.JoinProcs(l.Addr(), procs, pr.P/procs)
		joined <- err
	}()
	if mesh[0], err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	defer mesh[0].Close()
	defer mesh[1].Close()
	run := func(steps int) func() {
		return func() {
			follower := make(chan error, 1)
			on := func(proc *comm.Proc) error {
				local := pr
				local.Steps, local.Proc = steps, proc
				_, _, err := AllPairs(ps, local)
				return err
			}
			go func() { follower <- on(mesh[1]) }()
			if err := on(mesh[0]); err != nil {
				t.Fatal(err)
			}
			if err := <-follower; err != nil {
				t.Fatal(err)
			}
		}
	}
	base := runMallocs(run(2))
	long := runMallocs(run(2 + extra))
	t.Logf("2 steps: %d objects, %d steps: %d objects", base, 2+extra, long)
	if long > base+extra*perStep {
		t.Errorf("a %d-step socket run allocated %d objects, a 2-step run %d; %d extra steps may allocate at most %d",
			2+extra, long, base, extra, extra*perStep)
	}
}
