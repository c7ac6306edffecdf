package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/phys"
	"repro/internal/topo"
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

// evaluated is the plan of a session of newS over ps and pr, held to
// checkSchedule: under rendezvous semantics the step must run to its
// end.
func evaluated(t *testing.T, newS func([]phys.Particle, Params) (*Session, error), ps []phys.Particle, pr Params) *Plan {
	t.Helper()
	s, err := newS(ps, pr)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range checkSchedule(t, pl) {
		kind := [...]string{"a send", "a receive", "a move"}[op.Kind]
		t.Fatalf("under rendezvous the step deadlocks: a rank waits in %s of the %v (to %d, from %d, tag %d)", kind, op.Phase, op.To, op.From, op.Tag)
	}
	return pl
}

// checkSchedule holds a plan's messages — collectives, moves and
// reassignment — to what the runtime needs of them: every send meets a
// receive at its peer with the same tag and bytes, each rank's receives
// from a peer come in the order it posts them (the mailboxes are FIFO
// per pair), and under rendezvous semantics, where a send completes
// only when its receive is taken, the step runs to its end: no cycle of
// ranks waits on each other. A move (OpSendrecv) offers its send and its
// receive at once, as comm's Sendrecv does. It returns the operation
// each rank that cannot finish under rendezvous waits in.
func checkSchedule(t *testing.T, pl *Plan) (stalled []Op) {
	t.Helper()
	type half struct{ tag, bytes int }
	sent, recvd := map[[2]int][]half{}, map[[2]int][]half{}
	ops := make([][]Op, len(pl.Ranks)) // each rank's messages
	for r, rops := range pl.Ranks {
		for _, op := range rops {
			if op.Kind == OpVisit {
				continue
			}
			ops[r] = append(ops[r], op)
			if op.To >= 0 {
				sent[[2]int{r, op.To}] = append(sent[[2]int{r, op.To}], half{op.Tag, op.Bytes})
			}
			if op.From >= 0 {
				recvd[[2]int{op.From, r}] = append(recvd[[2]int{op.From, r}], half{op.Tag, op.RecvBytes})
			}
		}
	}
	for pair, s := range sent {
		if r := recvd[pair]; !slices.Equal(s, r) {
			t.Fatalf("rank %d sends rank %d (tag, bytes) %v, which receives %v", pair[0], pair[1], s, r)
		}
	}
	for pair, r := range recvd {
		if _, ok := sent[pair]; !ok {
			t.Fatalf("rank %d awaits %v from rank %d, which sends it nothing", pair[1], r, pair[0])
		}
	}
	// Rendezvous: repeatedly match a rank's pending send with the
	// receive its peer has posted, until no match is left.
	at := make([]int, len(ops))
	sentHalf, recvHalf := make([]bool, len(ops)), make([]bool, len(ops))
	pending := func(r int) *Op {
		if at[r] == len(ops[r]) {
			return nil
		}
		return &ops[r][at[r]]
	}
	done := func(r int) {
		op := pending(r)
		if (op.To < 0 || sentHalf[r]) && (op.From < 0 || recvHalf[r]) {
			at[r]++
			sentHalf[r], recvHalf[r] = false, false
		}
	}
	for progress := true; progress; {
		progress = false
		for r := range ops {
			op := pending(r)
			if op == nil || op.To < 0 || sentHalf[r] {
				continue
			}
			peer := pending(op.To)
			if peer == nil || peer.From != r || recvHalf[op.To] || peer.Tag != op.Tag {
				continue
			}
			sentHalf[r], recvHalf[op.To] = true, true
			done(r)
			if op.To != r {
				done(op.To)
			}
			progress = true
		}
	}
	for r := range ops {
		if op := pending(r); op != nil {
			stalled = append(stalled, *op)
		}
	}
	return stalled
}

// applied counts, over the visits of a plan of teams teams, how often
// some rank of team t was handed the block team src loaded:
// applied[t][src].
func applied(pl *Plan, teams int) [][]int {
	out := make([][]int, teams)
	for team := range out {
		out[team] = make([]int, teams)
	}
	for r, ops := range pl.Ranks {
		for _, op := range ops {
			if op.Kind == OpVisit {
				out[r%teams][op.Src]++
			}
		}
	}
	return out
}

// TestAllPairsPlanAppliesEveryBlockOnce evaluates Algorithm 1's step
// for the (p, c) grid of the all-pairs tests: over the c rows of the
// grid, every team's buffer is applied to every team exactly once per
// step, and the schedule is consistent (checkSchedule). The naive
// all-gather at each p hands every rank every block once.
func TestAllPairsPlanAppliesEveryBlockOnce(t *testing.T) {
	for _, tc := range []struct{ p, c int }{
		{1, 1}, {4, 1}, {4, 2}, {8, 2}, {16, 1}, {16, 2}, {16, 4}, {36, 6}, {64, 4}, {64, 8},
	} {
		pr := defaultParams(tc.p, tc.c)
		ps := phys.InitLattice(2*tc.p, pr.Box, 3)
		for _, alg := range []struct {
			name  string
			newS  func([]phys.Particle, Params) (*Session, error)
			teams int
		}{{"ca-all-pairs", NewAllPairs, tc.p / tc.c}, {"naive", NewNaiveAllGather, tc.p}} {
			if alg.name == "naive" && tc.c != 1 {
				continue
			}
			for team, srcs := range applied(evaluated(t, alg.newS, ps, pr), alg.teams) {
				for src, n := range srcs {
					if n != 1 {
						t.Fatalf("%s p=%d c=%d: team %d's buffer applied to team %d %d times, want once", alg.name, tc.p, tc.c, src, team, n)
					}
				}
			}
		}
	}
}

// TestCutoffPlanAppliesWindowOnce evaluates Algorithm 2's step over
// the schedule grid, on a team grid that is exactly the window and on a
// wider one, in either boundary: the buffers that pass the window test
// are those of the teams of the cutoff window, each exactly once, and
// the schedule, the reassignment included, is consistent
// (checkSchedule). (What else arrives — a buffer that wrapped around a
// reflective edge — is what the window test is there to skip.)
func TestCutoffPlanAppliesWindowOnce(t *testing.T) {
	for dim := 1; dim <= 2; dim++ {
		maxM := 6
		if dim == 2 {
			// (2m+2)² teams × up to (2m+1)² layers × (2m+1)² values of c,
			// each evaluated twice: m = 3 alone would be 300 000 steps.
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
					for _, boundary := range []phys.Boundary{phys.Reflective, phys.Periodic} {
						// Teams one unit wide and a cutoff of m units: a
						// span of m.
						box := phys.NewBox(float64(side), dim, boundary)
						pr := Params{P: T * c, C: c, Law: phys.DefaultLaw().WithCutoff(float64(m)), Box: box, DT: 1e-3}
						pl := evaluated(t, NewCutoff, phys.InitLattice(T, box, 3), pr)
						wrap := boundary == phys.Periodic
						for team, srcs := range applied(pl, T) {
							for src, n := range srcs {
								if tg.ChebyshevDist(team, src, wrap) <= m && n != 1 {
									t.Fatalf("dim=%d m=%d side=%d c=%d %v: team %d's buffer applied to team %d %d times, want once",
										dim, m, side, c, boundary, src, team, n)
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
