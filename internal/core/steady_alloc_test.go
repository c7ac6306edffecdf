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
// of the timestep loops: once a session's retained buffers exist, a
// step allocates nothing anywhere in the pipeline — broadcast, skew,
// shifts, force kernel (inline, pooled), reduce, integrate and, for the
// cutoff loop in one and two dimensions, spatial reassignment. Two
// runs that differ only in step count must therefore allocate exactly
// the same number of objects, in two settings. On a
// fresh session each, the set-up (communicators, mailboxes of the pairs
// used, first-step buffer growth) is identical in both. Run after Run on
// one session there is none left, only what every Advance starts — the
// rank goroutines, the pool's workers, the report. Either way ten extra
// steps must add zero. The guard is an equality, not a bound: a long run
// allocating *less* would mean the set-up is not what we think it is.
func TestSteadyStateAllocFree(t *testing.T) {
	const c, n = 2, 32
	loops := []struct {
		name string
		new  func(workers int) (*Session, error)
	}{
		{"allpairs", func(workers int) (*Session, error) {
			pr := defaultParams(4, c, 0)
			pr.Workers = workers
			return NewAllPairs(phys.InitUniform(n, pr.Box, 5), pr)
		}},
		{"cutoff", func(workers int) (*Session, error) {
			// 8 ranks: the 1D cutoff window needs at least 3 teams.
			pr := cutoffParams(8, c, 1, phys.Periodic)
			pr.Workers = workers
			return NewCutoff(phys.InitLattice(n, pr.Box, 5), pr)
		}},
		{"cutoff2D", func(workers int) (*Session, error) {
			// 32 ranks: a 4 × 4 team grid holds the 3 × 3 window.
			pr := cutoffParams(32, c, 2, phys.Reflective)
			pr.Workers = workers
			return NewCutoff(phys.InitLattice(4*n, pr.Box, 5), pr)
		}},
	}
	for _, lp := range loops {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/workers=%d", lp.name, workers)
			session := func() *Session {
				s, err := lp.new(workers)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			advance := func(s *Session, steps int) {
				if _, _, err := s.Advance(steps); err != nil {
					t.Fatal(err)
				}
			}
			fresh := func(steps int) func() { return func() { advance(session(), steps) } }
			if base, long := runMallocs(fresh(2)), runMallocs(fresh(12)); long != base {
				t.Errorf("%s: a fresh 12-step run allocated %d objects, a 2-step one %d; 10 extra steps must allocate 0", name, long, base)
			}
			s := session()
			advance(s, 2)
			again := func(steps int) func() { return func() { advance(s, steps) } }
			base, long := runMallocs(again(2)), runMallocs(again(12))
			t.Logf("%s: Run after Run, %d objects a call", name, base)
			if long != base {
				t.Errorf("%s: Run after Run, 12 steps allocated %d objects, 2 steps %d; 10 extra steps must allocate 0", name, long, base)
			}
		}
	}
}

// TestExchangeBuffersPerRank pins what the reuse discipline of
// transport.go costs in memory: a rank keeps a second exchange buffer
// exactly when its pairing reads a view after the rank's next move —
// everyBlock with blocks shorter than sweepBatch — and loads into it
// first at a session's second step. So on fresh all-pairs sessions
// Advance(2) allocates one object per rank more than Advance(1) when
// n/T < sweepBatch, and not one more when n/T ≥ sweepBatch.
func TestExchangeBuffersPerRank(t *testing.T) {
	const p, c = 4, 2
	for _, npt := range []int{sweepBatch / 8, sweepBatch - 1, sweepBatch, 2*sweepBatch + 3} {
		pr := defaultParams(p, c, 0)
		ps := phys.InitUniform(pr.Teams()*npt, pr.Box, 5)
		fresh := func(steps int) func() {
			return func() {
				s, err := NewAllPairs(ps, pr)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Advance(steps); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := int64(0)
		if npt < sweepBatch {
			want = p
		}
		one, two := runMallocs(fresh(1)), runMallocs(fresh(2))
		if got := int64(two) - int64(one); got != want {
			t.Errorf("n/T=%d: Advance(2) allocated %d objects, Advance(1) %d: %d more, want %d (one spare exchange buffer per rank where views are kept)",
				npt, two, one, got, want)
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
// socket path, Run after Run on one session per process: a 2×4
// all-pairs grid split row by row over a unix-socket mesh, so every step
// sends four team broadcasts and four force reductions across the wire.
// Frames are encoded into the link's recycled buffers, decoded straight
// out of its read buffer into the receiving rank's spares, and counted in
// per-rank tallies that keep their cells from one run to the next — so,
// as in process, ten more steps must allocate nothing. Nothing on the
// socket path takes from a sync.Pool (which under -race drops a quarter
// of what is put back), so the first measurement is exact under the race
// detector too.
func TestSocketSteadyStateAllocBound(t *testing.T) {
	const procs, extra = 2, 10
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
	var sessions [procs]*Session
	for i := range sessions {
		local := pr
		local.Proc = mesh[i]
		if sessions[i], err = NewAllPairs(ps, local); err != nil {
			t.Fatal(err)
		}
	}
	run := func(steps int) func() {
		return func() {
			follower := make(chan error, 1)
			go func() {
				_, _, err := sessions[1].Advance(steps)
				follower <- err
			}()
			if _, _, err := sessions[0].Advance(steps); err != nil {
				t.Fatal(err)
			}
			if err := <-follower; err != nil {
				t.Fatal(err)
			}
		}
	}
	run(2)()
	base, long := runMallocs(run(2)), runMallocs(run(2+extra))
	t.Logf("Run after Run, 2 steps: %d objects, %d steps: %d objects", base, 2+extra, long)
	if long != base {
		t.Errorf("Run after Run, a %d-step socket run allocated %d objects, a 2-step one %d; %d extra steps must allocate 0",
			2+extra, long, base, extra)
	}
}
