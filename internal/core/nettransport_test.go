package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/phys"
	"repro/internal/trace"
)

// socketDir returns a short-lived directory for a mesh's unix sockets.
// Not t.TempDir: it spells out the subtest's name, a unix socket path is
// capped near 108 bytes, and the mesh numbers its data sockets with a
// counter that reaches four digits by the fortieth repetition of a
// -count run (`make flakematrix` is what found it).
func socketDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "mesh")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// runOverSockets executes an algorithm collectively across `procs`
// in-process "OS processes" joined over a unix-socket mesh, splitting
// the pr.P world ranks evenly among them. Every process of a
// distributed run returns the complete merged state and report; the
// helper asserts the processes agree with each other and returns one
// copy for comparison against the single-process run.
//
// This is the socket half of the transport-fidelity contract: the wire
// transport must reproduce the in-process run bit for bit — final
// particle state, per-phase message/byte counts, and the measured S/W
// those counts feed — because both transports charge the identical wire
// sizes and execute the identical deterministic schedule.
func runOverSockets(t *testing.T, procs int, pr Params, ps []phys.Particle,
	run func([]phys.Particle, Params) ([]phys.Particle, *trace.Report, error)) ([]phys.Particle, *trace.Report) {
	t.Helper()
	if pr.P%procs != 0 {
		t.Fatalf("p=%d not divisible by procs=%d", pr.P, procs)
	}
	rendezvous := "unix:" + filepath.Join(socketDir(t), "r.sock")
	states := make([][]phys.Particle, procs)
	reports := make([]*trace.Report, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc, err := comm.JoinProcs(rendezvous, procs, pr.P/procs)
			if err != nil {
				errs[i] = fmt.Errorf("join: %w", err)
				return
			}
			defer proc.Close()
			local := pr
			local.Proc = proc
			out, rep, err := run(ps, local)
			if err != nil {
				errs[proc.ID()] = err
				return
			}
			states[proc.ID()] = out
			reports[proc.ID()] = rep
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
	}
	// Every process gathered the same merged result.
	for i := 1; i < procs; i++ {
		samePhysState(t, states[0], states[i])
		sameReportCounts(t, reports[0], reports[i])
	}
	return states[0], reports[0]
}

// checkSocketMatchesInProcess runs the algorithm once in-process and
// once distributed over `procs` socket-joined processes and requires
// bit-identical state plus identical per-phase accounting. At procs ==
// pr.P — the socket twin, the copying reference of the typed transport —
// it also checks the twin's premise: every message crossed a process, so
// the mesh carried exactly as many frames as the run counted messages.
func checkSocketMatchesInProcess(t *testing.T, procs int, pr Params, ps []phys.Particle,
	newS func([]phys.Particle, Params) (*Session, error), steps int) {
	t.Helper()
	local, localRep, err := advance(newS, ps, pr, steps)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	socket, socketRep := runOverSockets(t, procs, pr, ps, func(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
		return advance(newS, ps, pr, steps)
	})
	samePhysState(t, local, socket)
	sameReportCounts(t, localRep, socketRep)
	if procs == pr.P {
		var msgs int64
		for _, ph := range trace.Phases() {
			msgs += socketRep.Sum[ph].Messages
		}
		if socketRep.SocketFrames != msgs {
			t.Errorf("one rank a process: the mesh carried %d frames, the run counted %d messages", socketRep.SocketFrames, msgs)
		}
	}
}

// The socket tests' subtest names keep the overlap=false segment, as
// TestAllPairsTypedMatchesEncoded's do. Their rows split the ranks
// several to a process; TestAllPairsTypedMatchesEncoded and
// TestCutoffTypedMatchesEncoded run one rank a process.
func TestAllPairsSocketMatchesInProcess(t *testing.T) {
	cases := []struct{ procs, p, c, n int }{
		{2, 2, 1, 16},
		{2, 4, 2, 24},
		{4, 4, 1, 24},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("procs=%d/p=%d/c=%d/overlap=false", tc.procs, tc.p, tc.c), func(t *testing.T) {
			t.Parallel()
			pr := defaultParams(tc.p, tc.c)
			ps := phys.InitUniform(tc.n, pr.Box, 7)
			checkSocketMatchesInProcess(t, tc.procs, pr, ps, NewAllPairs, 4)
		})
	}
}

func TestCutoffSocketMatchesInProcess(t *testing.T) {
	cases := []struct {
		procs, p, c, dim, n int
		boundary            phys.Boundary
	}{
		{2, 4, 1, 1, 32, phys.Periodic},
		{4, 8, 1, 1, 64, phys.Reflective},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("procs=%d/p=%d/dim=%d/%v/overlap=false", tc.procs, tc.p, tc.dim, tc.boundary), func(t *testing.T) {
			t.Parallel()
			pr := cutoffParams(tc.p, tc.c, tc.dim, tc.boundary)
			ps := phys.InitUniform(tc.n, pr.Box, 11)
			checkSocketMatchesInProcess(t, tc.procs, pr, ps, NewCutoff, 3)
		})
	}
}

func TestNaiveAllGatherSocketMatchesInProcess(t *testing.T) {
	for _, procs := range []int{2, 4} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			t.Parallel()
			pr := defaultParams(4, 1)
			ps := phys.InitUniform(32, pr.Box, 13)
			checkSocketMatchesInProcess(t, procs, pr, ps, NewNaiveAllGather, 4)
		})
	}
}

// TestSocketBackToBackRuns drives two complete simulations over the
// same mesh, as a program does that builds a second Simulation on its
// process group. The second run must not see frames from the first:
// processes detach from the mesh before the result exchange, so a
// fast peer entering run two cannot have its frames swallowed by run
// one's world, which nothing will run again.
func TestSocketBackToBackRuns(t *testing.T) {
	const procs = 2
	pr := defaultParams(4, 2)
	ps := phys.InitUniform(24, pr.Box, 17)

	base, baseRep, err := advance(NewAllPairs, ps, pr, 3)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	rendezvous := "unix:" + filepath.Join(socketDir(t), "r2.sock")
	type result struct {
		states  [2][]phys.Particle
		reports [2]*trace.Report
	}
	results := make([]result, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc, err := comm.JoinProcs(rendezvous, procs, pr.P/procs)
			if err != nil {
				errs[i] = fmt.Errorf("join: %w", err)
				return
			}
			defer proc.Close()
			local := pr
			local.Proc = proc
			for r := 0; r < 2; r++ {
				out, rep, err := advance(NewAllPairs, ps, local, 3)
				if err != nil {
					errs[proc.ID()] = fmt.Errorf("run %d: %w", r, err)
					return
				}
				results[proc.ID()].states[r] = out
				results[proc.ID()].reports[r] = rep
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
	}
	for i := 0; i < procs; i++ {
		for r := 0; r < 2; r++ {
			samePhysState(t, base, results[i].states[r])
			sameReportCounts(t, baseRep, results[i].reports[r])
		}
	}
}
