package comm_test

// End-of-run exchange of a multi-process run (netrun.go), driven by the
// real timestep loops: what proc 0 merges out of its followers' sparse
// tallies must be the matrix an in-process run counts.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// overMesh joins procs in-process "OS processes" over a unix-socket
// mesh hosting ranksPerProc ranks each, runs fn on every one of them
// concurrently and closes the mesh. fn's first error fails the test.
func overMesh(t *testing.T, procs, ranksPerProc int, fn func(proc *comm.Proc) error) {
	t.Helper()
	for i, err := range meshErrors(t, procs, ranksPerProc, fn) {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
}

// meshErrors is overMesh returning what fn returned on each process.
func meshErrors(t *testing.T, procs, ranksPerProc int, fn func(proc *comm.Proc) error) []error {
	t.Helper()
	// Not t.TempDir: it spells out the subtest's name, and a unix socket
	// path is capped near 108 bytes.
	dir, err := os.MkdirTemp("", "mesh")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rendezvous := "unix:" + filepath.Join(dir, "r")
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc, err := comm.JoinProcs(rendezvous, procs, ranksPerProc)
			if err != nil {
				errs[i] = fmt.Errorf("join: %w", err)
				return
			}
			defer proc.Close()
			errs[i] = fn(proc)
		}(i)
	}
	wg.Wait()
	return errs
}

// mergeCase is one timestep loop configuration whose traffic matrix is
// compared between transports.
type mergeCase struct {
	name string
	newS func([]phys.Particle, core.Params) (*core.Session, error)
	pr   core.Params
	n    int
}

// mergeSteps is the length of a merge case's run.
const mergeSteps = 3

// run advances a new session of the case mergeSteps timesteps.
func (tc mergeCase) run(ps []phys.Particle, pr core.Params) ([]phys.Particle, *trace.Report, error) {
	s, err := tc.newS(ps, pr)
	if err != nil {
		return nil, nil, err
	}
	return s.Advance(mergeSteps)
}

func mergeCases() []mergeCase {
	box := phys.NewBox(16, 1, phys.Periodic)
	return []mergeCase{
		{"all-pairs/p=8/c=2", core.NewAllPairs, core.Params{
			P: 8, C: 2, Law: phys.DefaultLaw(), Box: phys.NewBox(10, 2, phys.Reflective), DT: 1e-3,
		}, 32},
		{"cutoff/p=16", core.NewCutoff, core.Params{
			P: 16, C: 2, Law: phys.DefaultLaw().WithCutoff(box.L / 4), Box: box, DT: 5e-4,
		}, 64},
	}
}

// inProcessMatrix runs the case observed in one process and returns its
// matrix, after checking it against the report it must conserve.
func inProcessMatrix(t *testing.T, tc mergeCase, ps []phys.Particle) *obs.CommMatrix {
	t.Helper()
	ob := obs.NewObserver(tc.pr.P, 0)
	pr := tc.pr
	pr.Options.Observe = ob
	_, rep, err := tc.run(ps, pr)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	mx := ob.Matrix()
	tot := trace.Measure(mx).Sum
	var msgs int64
	for _, ph := range trace.Phases() {
		sent, bytes := tot[ph].Messages, tot[ph].Bytes
		if sent != rep.Sum[ph].Messages || bytes != rep.Sum[ph].Bytes {
			t.Fatalf("phase %v: in-process matrix holds %d msgs / %d bytes, report %d / %d", ph, sent, bytes, rep.Sum[ph].Messages, rep.Sum[ph].Bytes)
		}
		msgs += sent
	}
	if msgs == 0 {
		t.Fatal("the in-process run sent nothing; the comparison would be vacuous")
	}
	return mx
}

// sameMatrix requires two matrices to agree cell for cell and in their
// per-phase totals.
func sameMatrix(t *testing.T, label string, want, got *obs.CommMatrix) {
	t.Helper()
	if w, g := want.Snapshot(nil), got.Snapshot(nil); !reflect.DeepEqual(w, g) {
		t.Errorf("%s: merged matrix differs from the in-process matrix\nwant:\n%sgot:\n%s", label, w.Table(), g.Table())
	}
	w, g := trace.Measure(want).Sum, trace.Measure(got).Sum
	for ph := range w {
		w[ph].Time, g[ph].Time = 0, 0 // traffic only
		if w[ph] != g[ph] {
			t.Errorf("%s: phase %d totals %+v, want %+v", label, ph, g[ph], w[ph])
		}
	}
}

// TestMergedMatrixEqualsInProcess: an observed proc 0 and followers that
// only tally — unobserved, or observed with a dense matrix of their own
// besides — yield on proc 0 exactly the in-process matrix, and a report
// that says how many messages took the socket.
func TestMergedMatrixEqualsInProcess(t *testing.T) {
	for _, tc := range mergeCases() {
		for _, v := range []struct {
			procs            int
			followerObserved bool
		}{{2, false}, {2, true}, {4, false}} {
			tc, v := tc, v
			t.Run(fmt.Sprintf("%s/procs=%d/followerObserved=%t", tc.name, v.procs, v.followerObserved), func(t *testing.T) {
				t.Parallel()
				ps := phys.InitUniform(tc.n, tc.pr.Box, 7)
				want := inProcessMatrix(t, tc, ps)
				var leader *obs.Observer
				var rep *trace.Report
				overMesh(t, v.procs, tc.pr.P/v.procs, func(proc *comm.Proc) error {
					pr := tc.pr
					pr.Proc = proc
					if proc.ID() == 0 || v.followerObserved {
						pr.Options.Observe = obs.NewObserver(tc.pr.P, 0)
					}
					_, r, err := tc.run(ps, pr)
					if proc.ID() == 0 {
						leader, rep = pr.Options.Observe, r
					}
					return err
				})
				sameMatrix(t, "socket run", want, leader.Matrix())

				// Every message between ranks of different processes is one
				// frame, counted where it arrived.
				rpp := tc.pr.P / v.procs
				var crossing int64
				snap := want.Snapshot(nil)
				for _, ph := range snap.Phases {
					for src := range ph.SentMsgs {
						for dst, n := range ph.SentMsgs[src] {
							if src/rpp != dst/rpp {
								crossing += n
							}
						}
					}
				}
				if rep.SocketFrames != crossing || rep.SocketFlushes < 1 || rep.SocketFlushes > crossing {
					t.Errorf("report says %d frames in %d flushes, want %d frames in 1..%d flushes", rep.SocketFrames, rep.SocketFlushes, crossing, crossing)
				}
				if g := leader.Metrics.Snapshot().Gauges; g["comm.net.frames_in"] == 0 || g["comm.net.flushes"] == 0 {
					t.Errorf("observed proc 0 published no link counters: %v", g)
				}
			})
		}
	}
}

// TestTallyStartsFromZeroEachRun: a mesh outlives its runs, the tallies
// must not. Three runs back to back on one mesh, a fresh observer on
// proc 0 each time, give the single-run matrix three times; one observer
// kept across three more gives exactly three times the single run, and
// so does one session advanced three times, whose world — tallies and
// frame count included — every run reuses. That holds too when the
// follower is observed and its own dense matrix keeps accumulating
// across the runs: what it reports is the run's tally, not that matrix.
func TestTallyStartsFromZeroEachRun(t *testing.T) {
	tc := mergeCases()[0]
	ps := phys.InitUniform(tc.n, tc.pr.Box, 7)
	want := inProcessMatrix(t, tc, ps)
	const runs = 3
	for _, followerObserved := range []bool{false, true} {
		t.Run(fmt.Sprintf("followerObserved=%t", followerObserved), func(t *testing.T) {
			var fresh [runs]*obs.Observer
			var frames [runs]int64
			kept, reused := obs.NewObserver(tc.pr.P, 0), obs.NewObserver(tc.pr.P, 0)
			overMesh(t, 2, tc.pr.P/2, func(proc *comm.Proc) error {
				pr := tc.pr
				pr.Proc = proc
				if proc.ID() != 0 && followerObserved {
					pr.Options.Observe = obs.NewObserver(tc.pr.P, 0)
				}
				for r := 0; r < 2*runs; r++ {
					if proc.ID() == 0 {
						if pr.Options.Observe = kept; r < runs {
							fresh[r] = obs.NewObserver(tc.pr.P, 0)
							pr.Options.Observe = fresh[r]
						}
					}
					if _, _, err := tc.run(ps, pr); err != nil {
						return fmt.Errorf("run %d: %w", r, err)
					}
				}
				if proc.ID() == 0 {
					pr.Options.Observe = reused
				}
				s, err := core.NewAllPairs(ps, pr)
				if err != nil {
					return err
				}
				for r := range frames {
					_, rep, err := s.Advance(mergeSteps)
					if err != nil {
						return fmt.Errorf("advance %d: %w", r, err)
					}
					if proc.ID() == 0 {
						frames[r] = rep.SocketFrames
					}
				}
				return nil
			})
			for r, ob := range fresh {
				sameMatrix(t, fmt.Sprintf("run %d", r), want, ob.Matrix())
			}
			for label, ob := range map[string]*obs.Observer{"one observer": kept, "one session": reused} {
				w, g := trace.Measure(want).Sum, trace.Measure(ob.Matrix()).Sum
				for ph := range w {
					ws, wb, wr, wrb := w[ph].Messages, w[ph].Bytes, w[ph].RecvMessages, w[ph].RecvBytes
					gs, gb, gr, grb := g[ph].Messages, g[ph].Bytes, g[ph].RecvMessages, g[ph].RecvBytes
					if gs != runs*ws || gb != runs*wb || gr != runs*wr || grb != runs*wrb {
						t.Errorf("%s, phase %d after %d runs: sent %d/%d recv %d/%d, want %d times sent %d/%d recv %d/%d",
							label, ph, runs, gs, gb, gr, grb, runs, ws, wb, wr, wrb)
					}
				}
			}
			if frames[0] == 0 || frames[1] != frames[0] || frames[2] != frames[0] {
				t.Errorf("the session's runs report %v socket frames, want the same nonzero count each", frames)
			}
		})
	}
}

// TestRemoteFailureReleasesReceivers: a rank on one process fails while
// every rank of the other process sits in a receive — half of them on a
// mailbox fed over the socket, half on a mailbox between two local
// ranks, which only the abort of the local mailboxes reaches. Both RunProc calls must
// return the failure, neither may hang, and no goroutine may be left.
func TestRemoteFailureReleasesReceivers(t *testing.T) {
	const procs, rpp = 2, 4
	const dies = rpp // first rank of proc 1
	for _, boxCap := range []int{-1, 1, 8} {
		t.Run(fmt.Sprintf("cap=%d", boxCap), func(t *testing.T) {
			// Ranks and — the meshes being closed — link goroutines must
			// all be gone.
			defer leakcheck.Check(t)()
			finished := make(chan []error, 1)
			go func() {
				finished <- meshErrors(t, procs, rpp, func(proc *comm.Proc) error {
					_, _, err := comm.RunProc(procs*rpp, comm.Options{MailboxCap: boxCap}, proc, func(c *comm.Comm) error {
						switch r := c.Rank(); {
						case r == dies:
							time.Sleep(5 * time.Millisecond) // let the others park
							return fmt.Errorf("injected failure")
						case r%2 == 0:
							c.Recv(dies, 0) // across the socket for proc 0
						default:
							c.Recv(r-1, 0) // a local neighbour that never sends
						}
						return nil
					})
					return err
				})
			}()
			select {
			case errs := <-finished:
				for i, err := range errs {
					if err == nil || !strings.Contains(err.Error(), "injected failure") {
						t.Errorf("process %d returned %v, want the failing rank's error", i, err)
					}
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a process still blocked 5 s after a remote rank failed")
			}
		})
	}
}

// TestSocketArrivalsKeepOrder: frames that arrive over the socket faster
// than the receiving rank drains them wait in a chain of deferred
// deliveries (inject), and a frame that arrives while that chain is
// pending must queue behind it even when the mailbox has room. In each
// of 16 rounds a rank on proc 0 sends 32 tagged messages, the later ones
// paced, to a rank on proc 1 that sleeps before it starts receiving, so
// frames arrive while it drains the earlier ones; every tag must arrive
// in order, on every mailbox capacity, and nothing may be left running.
// An acknowledgement closes each round.
func TestSocketArrivalsKeepOrder(t *testing.T) {
	const rounds, msgs, ack = 16, 32, 99
	for _, boxCap := range []int{-1, 1, 8} {
		t.Run(fmt.Sprintf("cap=%d", boxCap), func(t *testing.T) {
			defer leakcheck.Check(t)()
			errs := meshErrors(t, 2, 1, func(proc *comm.Proc) error {
				_, _, err := comm.RunProc(2, comm.Options{MailboxCap: boxCap}, proc, func(c *comm.Comm) error {
					for r := 0; r < rounds; r++ {
						if c.Rank() == 0 {
							for i := 0; i < msgs; i++ {
								c.Send(1, i, []byte{byte(i)})
								if i >= msgs/4 {
									time.Sleep(20 * time.Microsecond)
								}
							}
							c.Recv(1, ack)
							continue
						}
						time.Sleep(300 * time.Microsecond)
						for i := 0; i < msgs; i++ {
							// A frame out of order carries another tag, and Recv
							// panics on the mismatch.
							if b := c.Recv(0, i); len(b) != 1 || b[0] != byte(i) {
								return fmt.Errorf("round %d: message %d carried %v", r, i, b)
							}
						}
						c.Send(0, ack, nil)
					}
					return nil
				})
				return err
			})
			for i, err := range errs {
				if err != nil {
					t.Errorf("process %d: %v", i, err)
				}
			}
		})
	}
}
