package core

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
)

// layerOffsets returns the window offsets layer k handles, in step
// order.
func layerOffsets(s *CutoffSchedule, k int) []topo.Offset {
	out := make([]topo.Offset, s.Steps(k))
	for i := range out {
		out[i] = s.Offset(k, i)
	}
	return out
}

// coverage counts, for each window offset, the (layer, step) slots that
// deliver it. A correct schedule covers every offset exactly once.
func coverage(s *CutoffSchedule) map[topo.Offset]int {
	cov := make(map[topo.Offset]int, len(s.Seq))
	for k := 0; k < s.C; k++ {
		for _, off := range layerOffsets(s, k) {
			cov[off]++
		}
	}
	return cov
}

func TestCutoffScheduleCoversWindowExactlyOnce3D(t *testing.T) {
	// The 3D generalization: every offset of the (2m+1)³ import region
	// is delivered exactly once across layers and steps.
	for m := 1; m <= 2; m++ {
		w := topo.WindowSize(m, 3)
		for _, c := range []int{1, 2, 3, 5, 8, w} {
			s, err := NewCutoffSchedule(m, c, 3)
			if err != nil {
				t.Fatalf("m=%d c=%d: %v", m, c, err)
			}
			cov := coverage(s)
			if len(cov) != w {
				t.Fatalf("m=%d c=%d: covered %d offsets, want %d", m, c, len(cov), w)
			}
			for off, cnt := range cov {
				if cnt != 1 || off.Chebyshev() > m {
					t.Fatalf("m=%d c=%d: offset %+v count %d", m, c, off, cnt)
				}
			}
		}
	}
}

func TestCutoffScheduleCoversWindowExactlyOnce(t *testing.T) {
	for dim := 1; dim <= 2; dim++ {
		for m := 1; m <= 6; m++ {
			w := topo.WindowSize(m, dim)
			for c := 1; c <= w; c++ {
				s, err := NewCutoffSchedule(m, c, dim)
				if err != nil {
					t.Fatalf("m=%d c=%d dim=%d: %v", m, c, dim, err)
				}
				cov := coverage(s)
				if len(cov) != w {
					t.Fatalf("m=%d c=%d dim=%d: covered %d offsets, want %d", m, c, dim, len(cov), w)
				}
				for off, cnt := range cov {
					if cnt != 1 {
						t.Fatalf("m=%d c=%d dim=%d: offset %+v covered %d times", m, c, dim, off, cnt)
					}
					if off.Chebyshev() > m {
						t.Fatalf("m=%d c=%d dim=%d: offset %+v outside window", m, c, dim, off)
					}
				}
			}
		}
	}
}

func TestCutoffScheduleStepCounts(t *testing.T) {
	for dim := 1; dim <= 2; dim++ {
		for m := 1; m <= 5; m++ {
			w := topo.WindowSize(m, dim)
			for c := 1; c <= w; c++ {
				s, _ := NewCutoffSchedule(m, c, dim)
				total := 0
				for k := 0; k < c; k++ {
					steps := s.Steps(k)
					total += steps
					if steps > s.Steps(0) {
						t.Fatalf("layer %d exceeds layer 0's steps", k)
					}
				}
				if total != w {
					t.Fatalf("m=%d c=%d dim=%d: total steps %d != window %d", m, c, dim, total, w)
				}
				// The paper's O(m/c) step bound: ⌈w/c⌉, layer 0's count.
				if want := (w + c - 1) / c; s.Steps(0) != want {
					t.Fatalf("layer 0 takes %d steps, want ⌈%d/%d⌉=%d", s.Steps(0), w, c, want)
				}
			}
		}
	}
}

func TestCutoffScheduleMovesAreLocal(t *testing.T) {
	// Serpentine moves must span at most max(skew reach, stride reach):
	// the skew reaches up to m; a c-stride jump spans at most c unit
	// steps of the serpentine path, each of which is adjacent.
	for dim := 1; dim <= 2; dim++ {
		for m := 1; m <= 5; m++ {
			w := topo.WindowSize(m, dim)
			for c := 1; c <= w; c++ {
				s, _ := NewCutoffSchedule(m, c, dim)
				for k := 0; k < c; k++ {
					for i := 0; i < s.Steps(k); i++ {
						if got := s.Move(k, i).Chebyshev(); got > max(m, c) {
							t.Fatalf("dim=%d m=%d c=%d: move of %d exceeds bound %d", dim, m, c, got, max(m, c))
						}
					}
				}
			}
		}
	}
}

func TestCutoffScheduleRejectsBadParams(t *testing.T) {
	cases := []struct{ m, c, dim int }{
		{0, 1, 1},
		{1, 0, 1},
		{1, 4, 1},  // c > window of 3
		{1, 10, 2}, // c > window of 9
		{2, 1, 4},  // bad dim
	}
	for _, tc := range cases {
		if _, err := NewCutoffSchedule(tc.m, tc.c, tc.dim); err == nil {
			t.Errorf("m=%d c=%d dim=%d: expected error", tc.m, tc.c, tc.dim)
		}
	}
}

func TestSerpentineAdjacency(t *testing.T) {
	for dim := 1; dim <= 3; dim++ {
		maxM := 6
		if dim == 3 {
			maxM = 3
		}
		for m := 1; m <= maxM; m++ {
			seq := topo.Serpentine(m, dim)
			for i := 1; i < len(seq); i++ {
				d := topo.Offset{
					DX: seq[i].DX - seq[i-1].DX,
					DY: seq[i].DY - seq[i-1].DY,
					DZ: seq[i].DZ - seq[i-1].DZ,
				}
				if d.Chebyshev() != 1 {
					t.Fatalf("dim=%d m=%d: entries %d,%d not adjacent: %+v -> %+v",
						dim, m, i-1, i, seq[i-1], seq[i])
				}
			}
		}
	}
}

// paperXfer is a transport that moves nothing: driven by a rank's real
// shiftLoop.step, it writes down what the rank would have sent and
// computed on, in order, so that a whole ring can be replayed on paper
// afterwards.
type paperXfer struct{ log []paperOp }

type paperOp struct {
	kind          byte // 'm' a move, 'u' an update
	to, from, tag int
}

func (x *paperXfer) bcastTeam(*comm.Comm, []phys.Particle) []phys.Particle { return nil }
func (x *paperXfer) loadExchange([]phys.Particle)                          {}
func (x *paperXfer) reduceForces(*comm.Comm, []phys.Particle) []float64    { return nil }
func (x *paperXfer) sendParticles(*comm.Comm, int, int, []phys.Particle)   {}
func (x *paperXfer) recvParticles(*comm.Comm, int, int) []phys.Particle    { return nil }
func (x *paperXfer) shift(_ *comm.Comm, to, from, tag int) {
	x.log = append(x.log, paperOp{'m', to, from, tag})
}
func (x *paperXfer) view() (int, []phys.Particle) {
	x.log = append(x.log, paperOp{kind: 'u'})
	return -1, nil
}

// noPairing leaves the accumulation to the paper: view logs it.
type noPairing struct{}

func (noPairing) update(l *shiftLoop, _ int) { l.x.view() }
func (noPairing) flush(*shiftLoop)           {}
func (noPairing) integrated(_ *shiftLoop, mine []phys.Particle) ([]phys.Particle, error) {
	return mine, nil
}

// walkRing runs one timestep of every rank of one ring — rank t gets
// plan(t) — and replays the logs in lock step. It checks that the ranks
// agree on every move (same kind of operation, every hop's to is its
// peer's from, same tag at both ends) and returns applied[t][src]: how
// often team t computed on the buffer team src loaded.
func walkRing(t *testing.T, teams int, plan func(team int) moves) [][]int {
	t.Helper()
	logs := make([][]paperOp, teams)
	for team := range logs {
		x := &paperXfer{}
		l := &shiftLoop{
			rank: &rank{st: trace.NewStats()}, pr: &Params{},
			slot: team, moves: plan(team), x: x, pairing: noPairing{},
		}
		if err := l.step(); err != nil {
			t.Fatal(err)
		}
		logs[team] = x.log
	}
	holds := make([]int, teams) // the loader of the buffer each team holds
	for team := range holds {
		holds[team] = team
	}
	applied := make([][]int, teams)
	for team := range applied {
		applied[team] = make([]int, teams)
	}
	for k, op0 := range logs[0] {
		next := append([]int(nil), holds...)
		for team, log := range logs {
			if len(log) != len(logs[0]) || log[k].kind != op0.kind {
				t.Fatalf("team %d and team 0 disagree on operation %d of the step", team, k)
			}
			op := log[k]
			switch op.kind {
			case 'u':
				applied[team][holds[team]]++
			case 'm':
				peer := logs[op.to][k]
				if peer.from != team || peer.tag != op.tag {
					t.Fatalf("operation %d: team %d ships to %d under tag %d, which awaits %d under tag %d",
						k, team, op.to, op.tag, peer.from, peer.tag)
				}
				next[team] = holds[op.from]
			}
		}
		holds = next
	}
	return applied
}

// stepOnPaper is walkRing over every layer of a grid: applied[t][src]
// counts how often, in one timestep, some rank of team t computed on the
// buffer team src loaded.
func stepOnPaper(t *testing.T, teams, layers int, plan func(layer, team int) moves) [][]int {
	t.Helper()
	totals := make([][]int, teams)
	for team := range totals {
		totals[team] = make([]int, teams)
	}
	for layer := 0; layer < layers; layer++ {
		applied := walkRing(t, teams, func(team int) moves { return plan(layer, team) })
		for team := range applied {
			for src, n := range applied[team] {
				totals[team][src] += n
			}
		}
	}
	return totals
}

// TestAllPairsPlanAppliesEveryBlockOnce walks Algorithm 1's plan on
// paper for the (p, c) grid of the all-pairs tests: over the c rows of
// the grid, every team's buffer is applied to every team exactly once
// per step.
func TestAllPairsPlanAppliesEveryBlockOnce(t *testing.T) {
	for _, tc := range []struct{ p, c int }{
		{1, 1}, {4, 1}, {4, 2}, {8, 2}, {16, 1}, {16, 2}, {16, 4}, {36, 6}, {64, 4}, {64, 8},
	} {
		T := tc.p / tc.c
		applied := stepOnPaper(t, T, tc.c, func(row, col int) moves { return allPairsMoves(T, tc.c, row, col) })
		for team := range applied {
			for src, n := range applied[team] {
				if n != 1 {
					t.Fatalf("p=%d c=%d: team %d's buffer applied to team %d %d times, want once", tc.p, tc.c, src, team, n)
				}
			}
		}
	}
}

// TestCutoffPlanAppliesWindowOnce walks Algorithm 2's plan on paper
// over the schedule grid, on a team grid that is exactly the window and
// on a wider one: for either boundary, the buffers that pass the window
// test are those of the teams of the cutoff window, each exactly once.
// (What else arrives — a buffer that wrapped around a reflective edge —
// is what the test is there to skip.)
func TestCutoffPlanAppliesWindowOnce(t *testing.T) {
	for dim := 1; dim <= 2; dim++ {
		maxM := 6
		if dim == 2 {
			// (2m+2)² teams × up to (2m+1)² layers × (2m+1)² values of c,
			// each walked twice: m = 3 alone would be 300 000 steps.
			maxM = 2
		}
		for m := 1; m <= maxM; m++ {
			for _, side := range []int{2*m + 1, 2*m + 2} {
				T := side
				if dim == 2 {
					T = side * side
				}
				tg, err := topo.NewTeamGrid(T, dim)
				if err != nil {
					t.Fatal(err)
				}
				for c := 1; c <= topo.WindowSize(m, dim); c++ {
					sched, err := NewCutoffSchedule(m, c, dim)
					if err != nil {
						t.Fatal(err)
					}
					applied := stepOnPaper(t, T, c, func(layer, team int) moves { return cutoffMoves(sched, tg, layer, team) })
					for _, wrap := range []bool{false, true} {
						for team := range applied {
							for src, n := range applied[team] {
								if tg.ChebyshevDist(team, src, wrap) <= m && n != 1 {
									t.Fatalf("dim=%d m=%d side=%d c=%d wrap=%v: team %d's buffer applied to team %d %d times, want once",
										dim, m, side, c, wrap, src, team, n)
								}
							}
						}
					}
				}
			}
		}
	}
}

func ExampleCutoffSchedule() {
	s, _ := NewCutoffSchedule(2, 2, 1)
	for k := 0; k < s.C; k++ {
		fmt.Printf("layer %d: %v\n", k, layerOffsets(s, k))
	}
	// Output:
	// layer 0: [{-2 0 0} {0 0 0} {2 0 0}]
	// layer 1: [{-1 0 0} {1 0 0}]
}
