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
	"repro/internal/trace"
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
	objects, _ := runAllocs(run)
	return objects
}

// runAllocs is runMallocs with the bytes as well, the minimum of each
// over the three measurements.
func runAllocs(run func()) (objects, bytes uint64) {
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
	objects, bytes = ^uint64(0), ^uint64(0)
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
		objects = min(objects, m1.Mallocs-m0.Mallocs)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	return objects, bytes
}

// TestSteadyStateAllocFree pins the end-to-end zero-allocation property
// of the timestep loops: once a session's retained buffers exist, a
// step allocates nothing anywhere in the pipeline — skew, shifts (the
// naive baseline's all-gather ring among them), force kernel (inline,
// pooled), allreduce, integrate and, for the cutoff loop in one and two
// dimensions, spatial reassignment, which every rank of every layer
// runs; in the migrating case particles cross teams every step. Two
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
			pr := defaultParams(4, c)
			pr.Workers = workers
			return NewAllPairs(phys.InitUniform(n, pr.Box, 5), pr)
		}},
		{"naive", func(workers int) (*Session, error) {
			pr := defaultParams(4, 1)
			pr.Workers = workers
			return NewNaiveAllGather(phys.InitUniform(n, pr.Box, 5), pr)
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
		{"cutoff/migrating", func(workers int) (*Session, error) {
			// The lattice of 8 particles a team, 0.5 apart, drifts 0.3 a
			// step round the periodic box: a particle crosses into the
			// next team most steps. Team sizes drift by a particle or
			// so; the team, exchange and allreduce buffers grow with a
			// quarter of headroom at a new largest team, so the session
			// is handed over after four steps, when none grows any more.
			pr := cutoffParams(8, c, 1, phys.Periodic)
			pr.Workers = workers
			ps := phys.InitLattice(n, pr.Box, 5)
			for i := range ps {
				ps[i].Vel.X = 0.3 / pr.DT
			}
			s, err := NewCutoff(ps, pr)
			if err != nil {
				return nil, err
			}
			_, rep, err := s.Advance(4)
			if err == nil && rep.Sum[trace.Reassign].Bytes == 0 {
				err = fmt.Errorf("no particle migrated")
			}
			return s, err
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
		pr := defaultParams(p, c)
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
// on a conveyor: every step every particle crosses into a neighboring
// team, so each leader ships its whole set and adopts its neighbors'.
// (The lattice runs above never migrate; this is the opposite extreme.)
// In 1D every particle moves one team east; in 2D each moves one team
// along one of the four diagonals, chosen by its ID, so every particle
// takes the forwarding path: the x stage delivers it to a leader that
// passes it on in the y stage. After the first steps — which allocate
// the two team buffers, the arrivals buffer and the first payloads — the
// payload received in one stage must be the send buffer of a later one
// and the team buffers must alternate, so more steps allocate nothing;
// and every leader must hold, in ID order, exactly the particles that
// have travelled to it.
func TestMigratorRecyclesBuffers(t *testing.T) {
	const per = 8
	for _, tc := range []struct {
		dim, teams int
		moves      []topo.Offset // by particle ID mod len(moves)
	}{
		{1, 4, []topo.Offset{{DX: 1}}},
		{2, 16, []topo.Offset{{DX: 1, DY: 1}, {DX: -1, DY: 1}, {DX: 1, DY: -1}, {DX: -1, DY: -1}}},
	} {
		t.Run(fmt.Sprintf("dim=%d", tc.dim), func(t *testing.T) {
			box := phys.NewBox(16, tc.dim, phys.Periodic)
			tg, err := topo.NewTeamGrid(tc.teams, tc.dim)
			if err != nil {
				t.Fatal(err)
			}
			width := box.L / float64(tg.Side)
			// home is the team particle id reaches after steps steps.
			home := func(id, steps int) int {
				x, y := tg.Coord(id / per)
				mv := tc.moves[id%len(tc.moves)]
				to, _ := tg.Neighbor(tg.Team(x, y), steps*mv.DX, steps*mv.DY, true)
				return to
			}
			conveyor := func(steps int) func() {
				return func() {
					_, err := comm.Run(tg.Teams(), comm.Options{}, func(leaders *comm.Comm) error {
						team := leaders.Rank()
						tx, ty := tg.Coord(team)
						mine := make([]phys.Particle, per)
						for i := range mine {
							mine[i].ID = uint32(team*per + i)
							mine[i].Pos.X = (float64(tx) + 0.5) * width
							if tc.dim == 2 {
								mine[i].Pos.Y = (float64(ty) + 0.5) * width
							}
						}
						x := (&rank{}).newXfer(team, false)
						var mig migrator
						for step := 0; step < steps; step++ {
							for i := range mine {
								mv := tc.moves[int(mine[i].ID)%len(tc.moves)]
								mine[i].Pos.X = math.Mod(mine[i].Pos.X+float64(mv.DX)*width+box.L, box.L)
								if tc.dim == 2 {
									mine[i].Pos.Y = math.Mod(mine[i].Pos.Y+float64(mv.DY)*width+box.L, box.L)
								}
							}
							var err error
							if mine, err = mig.migrate(x, leaders, tg, team, mine, box, true); err != nil {
								return err
							}
						}
						if len(mine) != per {
							return fmt.Errorf("team %d after %d steps holds %d particles, want %d", team, steps, len(mine), per)
						}
						for i := range mine {
							id := int(mine[i].ID)
							if home(id, steps) != team || (i > 0 && mine[i-1].ID >= mine[i].ID) {
								return fmt.Errorf("team %d after %d steps holds particle %d (of team %d) at index %d; want its own arrivals in ID order",
									team, steps, id, home(id, steps), i)
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
		})
	}
}

// TestSocketSteadyStateAllocBound is the steady-state guard of the
// socket path, Run after Run on one session per process: a 2×4
// all-pairs grid split row by row over a unix-socket mesh, so in every
// step each of the four teams exchanges its forces across the wire, one
// message each way.
// Frames are encoded into the link's recycled buffers, decoded straight
// out of its read buffer into the receiving rank's spares, and counted in
// per-rank tallies that keep their cells from one run to the next — so,
// as in process, ten more steps must allocate nothing. Nothing on the
// socket path takes from a sync.Pool (which under -race drops a quarter
// of what is put back), so the first measurement is exact under the race
// detector too.
func TestSocketSteadyStateAllocBound(t *testing.T) {
	const procs, extra = 2, 10
	pr := defaultParams(8, 2)
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

// TestSocketRunAllocatesItsInProcessTwin holds a steady 2-proc socket
// Run, Run after Run on one session per process, to what the same
// session config allocates in process plus a constant. The end-of-run
// exchange encodes its FINISH and RESULT frames straight into the links'
// write buffers, and each is decoded out of the reader's buffer, which
// lends it until the decode is done, into storage the world keeps. So
// the exchange's payload — 52 bytes a deposited particle, each way —
// allocates nothing, and the constant must not grow with the deposits:
// it is the same at 32 particles and at 512.
func TestSocketRunAllocatesItsInProcessTwin(t *testing.T) {
	const procs, steps = 2, 2
	// What the socket Run allocates beyond its twin (17 objects and
	// 1 472 bytes when this was written): the end-of-run bookkeeping of
	// two processes — summary and result, the follower's copy of the
	// report, link counter snapshots, the mesh callbacks of attach.
	const extraObjects, extraBytes = 32, 4 << 10
	for _, n := range []int{32, 512} {
		pr := defaultParams(8, 2)
		ps := phys.InitUniform(n, pr.Box, 5)
		twin, err := NewAllPairs(ps, pr)
		if err != nil {
			t.Fatal(err)
		}
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
		socket := func() {
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
		inProcess := func() {
			if _, _, err := twin.Advance(steps); err != nil {
				t.Fatal(err)
			}
		}
		socket()
		inProcess()
		twinObjects, twinBytes := runAllocs(inProcess)
		objects, bytes := runAllocs(socket)
		t.Logf("n=%d: socket Run %d objects, %d bytes; in-process twin %d objects, %d bytes", n, objects, bytes, twinObjects, twinBytes)
		if objects > twinObjects+extraObjects || bytes > twinBytes+extraBytes {
			t.Errorf("n=%d: a steady socket Run allocated %d objects and %d bytes, its in-process twin %d and %d; want at most %d objects and %d bytes more",
				n, objects, bytes, twinObjects, twinBytes, extraObjects, extraBytes)
		}
	}
}
