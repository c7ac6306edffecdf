package place

import (
	"math"
	"math/rand"
)

// refine runs deterministic best-improvement local search on perm:
// full sweeps over every rank pair, applying the single best improving
// swap per pair visit, until a sweep finds no improvement. With the
// O(deg) incremental delta this is cheap even at 1k ranks, and it
// leaves every searcher's answer at a pairwise-swap local optimum —
// the standard finishing move of QAP heuristics. Returns the summed
// improvement (≤ 0).
func refine(ev *Evaluator, perm []int) float64 {
	n := ev.ranks
	var total float64
	for improved := true; improved; {
		improved = false
		for a := 0; a < n-1; a++ {
			for b := a + 1; b < n; b++ {
				if d := ev.SwapDelta(perm, a, b); d < -1e-12 {
					Swap(perm, nil, a, b)
					total += d
					improved = true
				}
			}
		}
	}
	return total
}

// Greedy is the constructive searcher: edges in descending traffic
// order, each unplaced endpoint dropped onto the free slot nearest its
// already-placed partner (the first edge anchors at slot 0 — every
// torus slot is equivalent by symmetry). Leftover ranks fill leftover
// slots in index order, and local search polishes the result. It
// returns a full slot permutation (rank → slot) and is deterministic.
func Greedy(ev *Evaluator) []int {
	perm := make([]int, ev.ranks)
	for i := range perm {
		perm[i] = -1
	}
	used := make([]bool, ev.ranks)
	// nearestFree returns the free slot with the fewest hops to slot
	// s, ties broken by slot index.
	nearestFree := func(s int) int {
		best, bestH := -1, int32(math.MaxInt32)
		for t := 0; t < ev.ranks; t++ {
			if used[t] {
				continue
			}
			if h := ev.slotHops(s, t); h < bestH {
				best, bestH = t, h
			}
		}
		return best
	}
	place := func(r, s int) {
		perm[r] = s
		used[s] = true
	}
	for _, e := range ev.sortedEdges() {
		pa, pb := perm[e.a] >= 0, perm[e.b] >= 0
		switch {
		case pa && pb:
			continue
		case !pa && !pb:
			// Anchor the heavier component first: put a on the first
			// free slot, b as close to it as possible.
			s := 0
			for used[s] {
				s++
			}
			place(e.a, s)
			place(e.b, nearestFree(s))
		case pa:
			place(e.b, nearestFree(perm[e.a]))
		default:
			place(e.a, nearestFree(perm[e.b]))
		}
	}
	next := 0
	for r := range perm {
		if perm[r] >= 0 {
			continue
		}
		for used[next] {
			next++
		}
		place(r, next)
	}
	refine(ev, perm)
	return perm
}

// The annealing schedule: restarts, proposed swaps per restart (per
// rank, capped), and the initial and final temperatures as fractions
// of the start point's mean per-edge cost.
const (
	annealRestarts     = 4
	annealItersPerRank = 15000
	annealMaxIters     = 1_000_000
	annealT0Frac       = 2.0
	annealT1Frac       = 0.01
)

// Anneal is the simulated-annealing searcher: each restart proposes
// random slot swaps, accepting improvements always and regressions
// with the Metropolis probability under a geometrically cooling
// temperature, then polishes its best state with local search. The
// first restart starts from Greedy, later ones alternately from a
// kicked copy of the best state so far and from a random permutation —
// diversity matters more than schedule length on torus-placement
// landscapes. The temperature scale is set relative to the starting
// cost so the schedule transfers across matrix magnitudes. It is
// deterministic under a fixed seed.
func Anneal(ev *Evaluator, seed uint64) []int {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	n := ev.ranks
	iters := min(annealItersPerRank*n, annealMaxIters)

	var globalBest []int
	globalCost := math.Inf(1)
	for restart := 0; restart < annealRestarts; restart++ {
		var perm []int
		kicked := false
		switch {
		case restart == 0:
			perm = Greedy(ev)
		case restart%2 == 1:
			// Iterated local search: kick the incumbent with n/4 random
			// swaps and re-anneal at reduced temperature, so half the
			// restarts exploit the best basin found so far.
			perm = append([]int(nil), globalBest...)
			for k := 0; k < n/4+1; k++ {
				a, b := rng.Intn(n), rng.Intn(n)
				perm[a], perm[b] = perm[b], perm[a]
			}
			kicked = true
		default:
			perm = rng.Perm(n)
		}
		inv := Inverse(perm)
		cur := ev.Cost(perm)
		best := append([]int(nil), perm...)
		bestCost := cur

		// Temperature relative to the mean per-edge cost of the start
		// point; a costless matrix has nothing to anneal.
		unit := cur / float64(max(1, ev.Edges()))
		if unit > 0 {
			t0, t1 := annealT0Frac*unit, annealT1Frac*unit
			if kicked {
				t0 /= 4
			}
			cool := math.Pow(t1/t0, 1/float64(max(1, iters-1)))
			temp := t0
			for it := 0; it < iters; it++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					d := ev.SwapDelta(perm, a, b)
					if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
						cur += d
						Swap(perm, inv, a, b)
						if cur < bestCost {
							bestCost = cur
							copy(best, perm)
						}
					}
				}
				temp *= cool
			}
		}
		bestCost += refine(ev, best)
		if bestCost < globalCost {
			globalCost = bestCost
			globalBest = best
		}
	}
	return globalBest
}
