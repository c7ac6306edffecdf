package comm

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	cnet "repro/internal/comm/net"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
	"repro/internal/vec"
)

// le is the little-endian hex of an integer field of n bytes.
func le(v uint64, n int) string {
	return hex.EncodeToString(binary.LittleEndian.AppendUint64(nil, v)[:n])
}

// zeros is the hex of n zero bytes.
func zeros(n int) string { return strings.Repeat("00", n) }

// shiftOnly is the hex of a phases block whose only nonzero phase is
// Shift, holding a, a+1, …, a+4 (messages … time) or, with step 2, a,
// a+2, ….
func shiftOnly(a, step uint64) string {
	s := zeros(int(trace.Shift) * phaseSize)
	for k := uint64(0); k < 5; k++ {
		s += le(a+k*step, 8)
	}
	return s + zeros((numPhases-int(trace.Shift)-1)*phaseSize)
}

func shiftStats(a, step int64) (ps [numPhases]trace.PhaseStats) {
	ps[trace.Shift] = trace.PhaseStats{Messages: a, Bytes: a + step, RecvMessages: a + 2*step, RecvBytes: a + 3*step, Time: time.Duration(a + 4*step)}
	return ps
}

// goldenParticle is the hex of a 52-byte wire particle with the given ID
// at (1, 2), at rest.
func goldenParticle(id uint64) string {
	return le(id, 4) + "000000000000f03f" + "0000000000000040" + zeros(32)
}

func particleAt12(id uint32) phys.Particle { return phys.Particle{ID: id, Pos: vec.Vec2{X: 1, Y: 2}} }

// TestExchangeGoldenBytes pins the version-2 layouts of the FINISH and
// RESULT payloads byte for byte (exchange.go), and that each decodes
// back to the value it encodes and is exactly as long as sized.
func TestExchangeGoldenBytes(t *testing.T) {
	sum := procSummary{
		Proc:            1,
		Stats:           []rankStatsWire{{Rank: 1, ByPhase: shiftStats(1, 1), WorkerCompute: []time.Duration{6}}},
		Deposits:        map[int][]phys.Particle{1: {particleAt12(7)}},
		Cells:           []obs.MatrixCell{{Phase: int(trace.Shift), Src: 1, Dst: 0, SentMsgs: 1, SentBytes: 52}},
		TimelineDropped: 8, Frames: 9, Flushes: 10,
	}
	wantSum := le(1, 4) + le(uint64(numPhases), 4) + le(8, 8) + le(9, 8) + le(10, 8) + // proc, phases, drops, frames, flushes
		le(1, 4) + le(1, 4) + shiftOnly(1, 1) + le(1, 4) + le(6, 8) + // one rank: rank 1, its phases, one worker
		le(1, 4) + le(1, 4) + le(1, 4) + goldenParticle(7) + // one deposit: slot 1, one particle
		le(8, 4) + "01" + "03010001340000" // an 8-byte cell block: one cell
	res := runResult{
		Report: &trace.Report{
			Ranks: 2, WorkerMax: 11, WorkerSum: 12, WorkerLanes: 2, SLowerBound: 0.5, WLowerBound: 1.5,
			TimelineDropped: 13, KernelImpl: "avx2", SocketFrames: 14, SocketFlushes: 15,
		},
		Deposits: map[int][]phys.Particle{1: {particleAt12(8)}, 0: {particleAt12(7)}},
	}
	res.Report.CriticalPath, res.Report.Sum = shiftStats(1, 1), shiftStats(2, 2)
	wantRes := le(2, 4) + le(uint64(numPhases), 4) + shiftOnly(1, 1) + shiftOnly(2, 2) + // ranks, phases, critical path, sum
		le(11, 8) + le(12, 8) + le(2, 4) + "000000000000e03f" + "000000000000f83f" + // workers, lower bounds
		le(13, 8) + le(4, 4) + hex.EncodeToString([]byte("avx2")) + le(14, 8) + le(15, 8) + // drops, kernel, socket
		le(2, 4) + le(0, 4) + le(1, 4) + goldenParticle(7) + le(1, 4) + le(1, 4) + goldenParticle(8) // slots in order

	gotSum := sum.appendTo(nil)
	if got := hex.EncodeToString(gotSum); got != wantSum {
		t.Errorf("FINISH encodes to\n%s\nwant\n%s", got, wantSum)
	}
	if len(gotSum) != sum.size() {
		t.Errorf("FINISH of %d bytes, sized %d", len(gotSum), sum.size())
	}
	if back, err := decodeSummary(gotSum, 2, 1, new(exchangeScratch)); err != nil || !reflect.DeepEqual(back, sum) {
		t.Errorf("FINISH decodes to %+v, %v; want %+v", back, err, sum)
	}
	gotRes := res.appendTo(nil)
	if got := hex.EncodeToString(gotRes); got != wantRes {
		t.Errorf("RESULT encodes to\n%s\nwant\n%s", got, wantRes)
	}
	if len(gotRes) != res.size() {
		t.Errorf("RESULT of %d bytes, sized %d", len(gotRes), res.size())
	}
	if back, err := decodeResult(gotRes, 2, new(exchangeScratch)); err != nil || !reflect.DeepEqual(back, res) {
		t.Errorf("RESULT decodes to %+v, %v; want %+v", back, err, res)
	}
}

// dirtyScratch returns exchange storage a larger payload than the fuzz
// seeds was decoded into, as a world's is after a run: a summary of
// proc 1 of 3 × 2 ranks with more workers, deposit slots and cells,
// then a result of 4 ranks with more deposit slots.
func dirtyScratch(t *testing.T) *exchangeScratch {
	sc := new(exchangeScratch)
	ps := []phys.Particle{particleAt12(1), particleAt12(2), particleAt12(3)}
	sum := procSummary{
		Proc: 1,
		Stats: []rankStatsWire{
			{Rank: 2, ByPhase: shiftStats(9, 3), WorkerCompute: []time.Duration{1, 2, 3, 4, 5}},
			{Rank: 3, ByPhase: shiftStats(7, 1), WorkerCompute: []time.Duration{6, 7, 8}},
		},
		Deposits: map[int][]phys.Particle{0: ps, 1: ps[:1], 3: ps, 4: ps[:2]},
		Cells: []obs.MatrixCell{
			{Phase: 0, Src: 0, Dst: 1, SentMsgs: 9}, {Phase: 1, Src: 2, Dst: 3, RecvMsgs: 5},
			{Phase: 2, Src: 3, Dst: 5, SentBytes: 7}, {Phase: 3, Src: 5, Dst: 0, RecvBytes: 1 << 50},
		},
	}
	if _, err := decodeSummary(sum.appendTo(nil), 3, 2, sc); err != nil {
		t.Fatal(err)
	}
	res := runResult{Report: &trace.Report{Ranks: 4}, Deposits: map[int][]phys.Particle{0: ps[:1], 1: ps, 2: ps, 3: ps[:2]}}
	if _, err := decodeResult(res.appendTo(nil), 4, sc); err != nil {
		t.Fatal(err)
	}
	return sc
}

// sameErr reports whether two decodes failed alike.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// FuzzSummary: arbitrary bytes decode, as the FINISH payload of a
// follower of 3 procs × 2 ranks, to an error or to a summary of exactly
// that follower's ranks that re-encodes to the same bytes — into fresh
// storage and into the dirty storage of a world after a run alike.
func FuzzSummary(f *testing.F) {
	f.Add((&procSummary{Proc: 1, Stats: []rankStatsWire{{Rank: 2}, {Rank: 3}}}).appendTo(nil))
	f.Add((&procSummary{
		Proc: 2,
		Stats: []rankStatsWire{
			{Rank: 4, ByPhase: shiftStats(1, 1), WorkerCompute: []time.Duration{3, 4}},
			{Rank: 5, ByPhase: shiftStats(5, 2)},
		},
		Deposits:        map[int][]phys.Particle{2: {particleAt12(1), particleAt12(2)}, 5: {particleAt12(3)}},
		Cells:           []obs.MatrixCell{{Phase: 1, Src: 4, Dst: 0, SentMsgs: 2, SentBytes: 104}, {Phase: 4, Src: 1, Dst: 5, RecvMsgs: 1, RecvBytes: 1 << 40}},
		TimelineDropped: 1, Frames: 2, Flushes: 1,
	}).appendTo(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		const procs, rpp = 3, 2
		s, err := decodeSummary(data, procs, rpp, new(exchangeScratch))
		dirty, dirtyErr := decodeSummary(data, procs, rpp, dirtyScratch(t))
		if !sameErr(err, dirtyErr) {
			t.Fatalf("decoding into dirty storage fails with %v, into fresh with %v", dirtyErr, err)
		}
		if err != nil {
			return
		}
		if again := dirty.appendTo(nil); !bytes.Equal(again, data) {
			t.Fatalf("summary decoded into dirty storage re-encodes to % x, decoded from % x", again, data)
		}
		if s.Proc < 1 || s.Proc >= procs || len(s.Stats) != rpp {
			t.Fatalf("accepted proc %d with %d ranks", s.Proc, len(s.Stats))
		}
		for i, w := range s.Stats {
			if w.Rank != s.Proc*rpp+i {
				t.Fatalf("accepted rank %d as proc %d's rank %d", w.Rank, s.Proc, i)
			}
		}
		if again := s.appendTo(nil); !bytes.Equal(again, data) || s.size() != len(data) {
			t.Fatalf("summary re-encodes to % x (sized %d), decoded from % x", again, s.size(), data)
		}
	})
}

// FuzzResult: arbitrary bytes decode, as the RESULT payload of a 4-rank
// run, to an error or to a result that re-encodes to the same bytes —
// into fresh storage and into dirty storage alike.
func FuzzResult(f *testing.F) {
	f.Add((&runResult{Report: &trace.Report{Ranks: 4}}).appendTo(nil))
	rep := &trace.Report{Ranks: 4, WorkerLanes: 1, WorkerMax: 5, WorkerSum: 5, SLowerBound: 3.5, KernelImpl: "portable", SocketFrames: 8, SocketFlushes: 2}
	rep.CriticalPath, rep.Sum = shiftStats(1, 1), shiftStats(4, 4)
	f.Add((&runResult{Report: rep, Deposits: map[int][]phys.Particle{0: {particleAt12(0)}, 3: {particleAt12(1), particleAt12(2)}}}).appendTo(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeResult(data, 4, new(exchangeScratch))
		dirty, dirtyErr := decodeResult(data, 4, dirtyScratch(t))
		if !sameErr(err, dirtyErr) {
			t.Fatalf("decoding into dirty storage fails with %v, into fresh with %v", dirtyErr, err)
		}
		if err != nil {
			return
		}
		if again := dirty.appendTo(nil); !bytes.Equal(again, data) {
			t.Fatalf("result decoded into dirty storage re-encodes to % x, decoded from % x", again, data)
		}
		if again := r.appendTo(nil); !bytes.Equal(again, data) || r.size() != len(data) {
			t.Fatalf("result re-encodes to % x (sized %d), decoded from % x", again, r.size(), data)
		}
	})
}

// TestMalformedSummaryFailsEveryProc: a follower whose FINISH frame is
// forged — cells out of range, repeated or mangled; stats of fewer
// phases than the run has, a rank listed twice or missing; a summary
// that names another proc or comes twice; a deposit slot out of range —
// must fail the run on proc 0 with an error naming the follower, before
// anything of it is merged (the matrix stays empty), and through the
// aborted mesh on every follower as well. The mesh is 3 procs × 2
// ranks; proc 1 sends the forged frames, proc 2 none.
func TestMalformedSummaryFailsEveryProc(t *testing.T) {
	const procs, rpp = 3, 2
	enc := func(s procSummary) []byte { return s.appendTo(nil) }
	valid := enc(procSummary{Proc: 1, Stats: []rankStatsWire{{Rank: 2}, {Rank: 3}}})
	// head is a valid summary up to its cell block, which finish appends.
	head := valid[:len(valid)-4-cellsSize(nil)]
	finish := func(block []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(slices.Clone(head), uint32(len(block))), block...)
	}
	cells := func(cells ...obs.MatrixCell) []byte { return appendCells(nil, cells) }
	validCells := cells(obs.MatrixCell{Phase: 1, Src: 2, Dst: 0, SentMsgs: 1, SentBytes: 8})
	// shortPhases rewrites valid as stats of numPhases-1 phases: the phase
	// count says so, and each rank's last phase is cut out.
	shortPhases := func() []byte {
		const fixed, stats = 36, 4 + numPhases*phaseSize + 4
		out := binary.LittleEndian.AppendUint32(slices.Clone(valid[:4]), uint32(numPhases-1))
		out = append(out, valid[8:fixed]...)
		for r := 0; r < rpp; r++ {
			entry := valid[fixed+r*stats : fixed+(r+1)*stats]
			out = append(out, entry[:stats-4-phaseSize]...)
			out = append(out, entry[stats-4:]...)
		}
		return append(out, valid[fixed+rpp*stats:]...)
	}
	cases := []struct {
		name     string
		payloads [][]byte
		want     string
	}{
		{"src rank out of range", [][]byte{finish(cells(obs.MatrixCell{Phase: 1, Src: procs * rpp, Dst: 0, SentMsgs: 1}))}, "src rank 6 out of range"},
		{"phase out of range", [][]byte{finish(cells(obs.MatrixCell{Phase: numPhases, Src: 2, Dst: 0, SentMsgs: 1}))}, "phase 7 out of range"},
		{"duplicate cell", [][]byte{finish(cells(obs.MatrixCell{Phase: 1, Src: 2, Dst: 0, SentMsgs: 1}, obs.MatrixCell{Phase: 1, Src: 2, Dst: 0, RecvMsgs: 1}))}, "repeated or out of order"},
		{"cell block cut short", [][]byte{finish(validCells[:len(validCells)-1])}, "truncated received bytes"},
		{"length past the frame", [][]byte{binary.LittleEndian.AppendUint32(slices.Clone(head), 1<<20)}, "truncated cell block"},
		{"no length at all", [][]byte{slices.Clone(head)}, "truncated cell block length"},
		{"no summary", [][]byte{append(binary.LittleEndian.AppendUint32(nil, uint32(len(validCells))), validCells...)}, "summary from proc 1: "},
		{"phases short", [][]byte{shortPhases()}, "6 phases, want 7"},
		{"rank listed twice", [][]byte{enc(procSummary{Proc: 1, Stats: []rankStatsWire{{Rank: 2}, {Rank: 2}}})}, "stats entry 1 is rank 2, want rank 3"},
		{"rank missing", [][]byte{enc(procSummary{Proc: 1, Stats: []rankStatsWire{{Rank: 2}}})}, "stats of 1 ranks, want proc 1's 2"},
		{"names another proc", [][]byte{enc(procSummary{Proc: 2, Stats: []rankStatsWire{{Rank: 4}, {Rank: 5}}})}, "claims to come from proc 2"},
		{"sent twice", [][]byte{valid, valid}, "a second summary of the run"},
		{"deposit slot out of range", [][]byte{enc(procSummary{Proc: 1, Stats: []rankStatsWire{{Rank: 2}, {Rank: 3}}, Deposits: map[int][]phys.Particle{6: {{}}}})}, "deposit slot 6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, err := os.MkdirTemp("", "mesh")
			if err != nil {
				t.Fatal(err)
			}
			defer os.RemoveAll(dir)
			l, err := ListenProcs("unix:"+filepath.Join(dir, "r"), procs, rpp)
			if err != nil {
				t.Fatal(err)
			}
			// The followers are played by hand: they have no ranks to run
			// and go straight to the exchange.
			followers := make([]error, procs-1)
			var wg sync.WaitGroup
			for i := range followers {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					p, err := JoinProcs(l.Addr(), procs, rpp)
					if err != nil {
						followers[i] = fmt.Errorf("join: %w", err)
						return
					}
					defer p.Close()
					if p.ID() == 1 {
						for _, payload := range tc.payloads {
							if err := p.mesh.Send(0, cnet.Frame{Kind: cnet.KindFinish, Src: 1, Payload: payload}, nil); err != nil {
								followers[i] = fmt.Errorf("send: %w", err)
								return
							}
						}
					}
					_, followers[i] = p.mesh.RecvCtrl()
				}(i)
			}
			leader, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			ob := obs.NewObserver(procs*rpp, 0)
			_, _, err = RunProc(procs*rpp, Options{Observe: ob}, leader, func(*Comm) error { return nil })
			if err == nil || !strings.Contains(err.Error(), "comm: summary from proc 1: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("proc 0 returned %v, want a summary error from proc 1 containing %q", err, tc.want)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
				for i, ferr := range followers {
					if ferr == nil || strings.HasPrefix(ferr.Error(), "join") || strings.HasPrefix(ferr.Error(), "send") {
						t.Errorf("follower %d saw %v, want the run's failure", i, ferr)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a follower is still waiting for a result")
			}
			for ph := 0; ph < numPhases; ph++ {
				if s, _, r, _ := ob.Matrix().PhaseTotals(ph); s != 0 || r != 0 {
					t.Errorf("a rejected summary left %d sends and %d receives of phase %d in proc 0's matrix", s, r, ph)
				}
			}
		})
	}
}
