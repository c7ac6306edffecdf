package place

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// ringTraffic builds a p×p matrix where rank r sends w bytes to
// (r+1) mod p — the shift pattern of the paper's algorithms.
func ringTraffic(p int, w float64) [][]float64 {
	t := make([][]float64, p)
	for i := range t {
		t[i] = make([]float64, p)
		t[i][(i+1)%p] = w
	}
	return t
}

// randomTraffic builds a dense random matrix with a deterministic rng.
func randomTraffic(p int, rng *rand.Rand) [][]float64 {
	t := make([][]float64, p)
	for i := range t {
		t[i] = make([]float64, p)
		for j := range t[i] {
			if i != j && rng.Float64() < 0.4 {
				t[i][j] = float64(1 + rng.Intn(1000))
			}
		}
	}
	return t
}

func mustTorus(t *testing.T, x, y, z, cores int) topo.Torus {
	t.Helper()
	tor, err := topo.NewTorus(x, y, z, cores)
	if err != nil {
		t.Fatal(err)
	}
	return tor
}

// TestEvaluatorHopsMatchTopo pins the evaluator's private hop table
// (it mirrors topo's unexported ring helpers) against topo.Hops for
// every slot pair on a mixed odd/even torus with multiple cores per
// node.
func TestEvaluatorHopsMatchTopo(t *testing.T) {
	tor := mustTorus(t, 3, 4, 5, 2)
	p := tor.Ranks()
	ev, err := NewEvaluator(ringTraffic(p, 1), tor)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			if got, want := int(ev.slotHops(a, b)), tor.Hops(a, b); got != want {
				t.Fatalf("slotHops(%d,%d) = %d, topo.Hops = %d", a, b, got, want)
			}
		}
	}
}

// TestCostIdentityRing checks the objective on a hand-computable case:
// a ring matrix on a 1×1×p torus. Under identity each of the p edges
// spans 1 hop except the wraparound edge (p-1 → 0), which is also 1
// hop on a ring — so cost = p·w.
func TestCostIdentityRing(t *testing.T) {
	const p, w = 8, 100.0
	tor := mustTorus(t, 1, 1, p, 1)
	ev, err := NewEvaluator(ringTraffic(p, w), tor)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.Cost(ev.Identity()); got != p*w {
		t.Fatalf("identity ring cost = %g, want %g", got, p*w)
	}
}

// TestSwapDeltaMatchesRecompute cross-checks the incremental swap
// delta against a full Cost recomputation over many random swaps on a
// random dense matrix.
func TestSwapDeltaMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tor := mustTorus(t, 2, 3, 3, 2) // 36 slots
	traffic := randomTraffic(20, rng)
	ev, err := NewEvaluator(traffic, tor)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(ev.Ranks())
	cost := ev.Cost(perm)
	for trial := 0; trial < 500; trial++ {
		a, b := rng.Intn(ev.Ranks()), rng.Intn(ev.Ranks())
		d := ev.SwapDelta(perm, a, b)
		Swap(perm, nil, a, b)
		cost += d
		if full := ev.Cost(perm); math.Abs(full-cost) > 1e-6*math.Max(1, math.Abs(full)) {
			t.Fatalf("trial %d: incremental cost %g diverged from recompute %g", trial, cost, full)
		}
	}
}

// TestSwapDeltaAllocFree pins the acceptance criterion that the
// optimizer inner loop does not allocate.
func TestSwapDeltaAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tor := mustTorus(t, 4, 4, 4, 1)
	ev, err := NewEvaluator(randomTraffic(64, rng), tor)
	if err != nil {
		t.Fatal(err)
	}
	perm := ev.Identity()
	a, b := 0, 0
	if allocs := testing.AllocsPerRun(100, func() {
		ev.SwapDelta(perm, a, b)
		a = (a + 7) % 64
		b = (b + 13) % 64
	}); allocs != 0 {
		t.Fatalf("SwapDelta allocates %.1f times per call, want 0", allocs)
	}
}

// TestSwapAndInverse checks the perm/inv pair stays consistent.
func TestSwapAndInverse(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	inv := Inverse(perm)
	for s, r := range inv {
		if perm[r] != s {
			t.Fatalf("inverse broken at slot %d", s)
		}
	}
	Swap(perm, inv, 0, 2)
	if perm[0] != 3 || perm[2] != 2 {
		t.Fatalf("swap wrong: %v", perm)
	}
	for s, r := range inv {
		if perm[r] != s {
			t.Fatalf("inverse stale at slot %d after swap", s)
		}
	}
}

// searchers lists the two searchers by name, Anneal under a fixed seed.
var searchers = []struct {
	name   string
	search func(ev *Evaluator, seed uint64) []int
}{
	{"greedy", func(ev *Evaluator, _ uint64) []int { return Greedy(ev) }},
	{"anneal", Anneal},
}

// TestSearchersValidAndDeterministic runs every searcher twice under
// the same seed and checks (a) the result is a valid permutation, (b)
// the two runs agree element-wise, and (c) no searcher is worse than
// identity on a structured matrix.
func TestSearchersValidAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tor := mustTorus(t, 3, 3, 4, 2) // 72 slots
	ev, err := NewEvaluator(randomTraffic(48, rng), tor)
	if err != nil {
		t.Fatal(err)
	}
	idCost := ev.Cost(ev.Identity())
	for _, s := range searchers {
		p1 := s.search(ev, 42)
		p2 := s.search(ev, 42)
		if err := ev.CheckPerm(p1); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%s: nondeterministic at index %d under fixed seed", s.name, i)
			}
		}
		if c := ev.Cost(p1); c > idCost {
			t.Errorf("%s: cost %g worse than identity %g", s.name, c, idCost)
		}
	}
}

// TestSearchersImproveNeighborMatrix checks searchers actually reduce
// hop cost on a matrix with exploitable structure: ranks talk to
// index-neighbors but identity scatters them across a torus whose
// natural order differs (cores=1, ring matrix, shuffled labels).
func TestSearchersImproveNeighborMatrix(t *testing.T) {
	tor := mustTorus(t, 4, 4, 4, 1)
	p := tor.Ranks()
	// Shuffle the ring so identity placement is poor.
	rng := rand.New(rand.NewSource(5))
	label := rng.Perm(p)
	traffic := make([][]float64, p)
	for i := range traffic {
		traffic[i] = make([]float64, p)
	}
	for r := 0; r < p; r++ {
		traffic[label[r]][label[(r+1)%p]] = 1000
	}
	ev, err := NewEvaluator(traffic, tor)
	if err != nil {
		t.Fatal(err)
	}
	idCost := ev.Cost(ev.Identity())
	for _, s := range searchers {
		perm := s.search(ev, 1)
		c := ev.Cost(perm)
		if c >= idCost {
			t.Errorf("%s: cost %g did not improve on identity %g", s.name, c, idCost)
		}
	}
}

// TestNewEvaluatorErrors pins validation failures.
func TestNewEvaluatorErrors(t *testing.T) {
	tor := mustTorus(t, 1, 1, 2, 1)
	if _, err := NewEvaluator(nil, tor); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := NewEvaluator([][]float64{{0, 1}, {1}}, tor); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := NewEvaluator(ringTraffic(4, 1), tor); err == nil {
		t.Error("matrix larger than torus accepted")
	}
}

// TestCheckPerm pins permutation validation.
func TestCheckPerm(t *testing.T) {
	tor := mustTorus(t, 1, 1, 3, 1)
	ev, err := NewEvaluator(ringTraffic(3, 1), tor)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.CheckPerm([]int{0, 1, 2}); err != nil {
		t.Errorf("valid perm rejected: %v", err)
	}
	for _, bad := range [][]int{{0, 1}, {0, 1, 3}, {0, 0, 1}} {
		if err := ev.CheckPerm(bad); err == nil {
			t.Errorf("bad perm %v accepted", bad)
		}
	}
}
