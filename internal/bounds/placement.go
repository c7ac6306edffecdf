package bounds

import "sort"

// HopBytesLowerBound returns a lower bound, over every rank→node
// placement on any torus hosting coresPerNode ranks per node, on the
// hop-weighted traffic Σ traffic[s][d]·hops(node(s), node(d)) — the
// objective the placement searchers (internal/place) minimize.
//
// The relaxation: an edge costs zero hops only if both endpoints share
// a node, a node hosts coresPerNode ranks, so each rank can co-locate
// with at most coresPerNode−1 partners; every other edge crosses at
// least one link. Exempting each rank's coresPerNode−1 heaviest
// incident edges therefore over-counts any achievable zero-hop set
// (a zero edge must fit the exemption budget of *both* endpoints,
// each edge contributing half its weight per endpoint), giving
//
//	bound = Σ_edges w − ½·Σ_ranks top_{coresPerNode−1}(incident w)
//
// where w(a,b) = traffic[a][b]+traffic[b][a]. With one core per node
// this degenerates to the total off-diagonal traffic: every remote
// byte crosses at least one link.
func HopBytesLowerBound(traffic [][]float64, coresPerNode int) float64 {
	p := len(traffic)
	var total float64
	incident := make([][]float64, p)
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			var w float64
			if b < len(traffic[a]) {
				w += traffic[a][b]
			}
			if a < len(traffic[b]) {
				w += traffic[b][a]
			}
			if w <= 0 {
				continue
			}
			total += w
			incident[a] = append(incident[a], w)
			incident[b] = append(incident[b], w)
		}
	}
	if coresPerNode < 1 {
		coresPerNode = 1
	}
	exempt := 0.0
	for _, ws := range incident {
		sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
		for i := 0; i < coresPerNode-1 && i < len(ws); i++ {
			exempt += ws[i] / 2
		}
	}
	if bound := total - exempt; bound > 0 {
		return bound
	}
	return 0
}
