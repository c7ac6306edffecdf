package core

import "fmt"

// Plan is one timestep of Algorithm 1 as its ranks execute it, written
// out for a consumer that prices the schedule instead of running it
// (internal/netsim). It is built from the same move lists a Session's
// step executes, so it describes the step that runs, not a second
// account of it.
type Plan struct {
	// Teams lists each team's world ranks, leader first: the groups the
	// step's broadcast and force reduction run over.
	Teams [][]int
	// Ranks is every world rank's share of the step, by world rank.
	Ranks []RankPlan
}

// RankPlan is one world rank's share of a Plan.
type RankPlan struct {
	// Moves lists, for each move position, the world rank the exchange
	// buffer is shipped to: position 0 is the skew, the rest are shifts,
	// and the rank itself means the buffer stays put.
	Moves []int
	// Computes says, for each move position, whether the rank computes on
	// the buffer it holds once that move is done.
	Computes []bool
}

// AllPairsPlan is Algorithm 1's timestep on p ranks at replication
// factor c, which must satisfy c² | p: allPairsMoves written out for
// every rank of the grid.
func AllPairsPlan(p, c int) (*Plan, error) {
	if c <= 0 || p <= 0 || p%(c*c) != 0 {
		return nil, fmt.Errorf("core: all-pairs needs c² | p, got p=%d c=%d", p, c)
	}
	cg, err := newCommGrid(p, c)
	if err != nil {
		return nil, err
	}
	pl := &Plan{Teams: cg.teams, Ranks: make([]RankPlan, cg.Size())}
	T := cg.Cols
	for row, ring := range cg.rows {
		ms := make([]moves, T)
		for col := range ms {
			ms[col] = allPairsMoves(T, c, row, col)
		}
		for i := 0; i <= ms[0].last; i++ {
			for col, r := range ring {
				h, _ := ms[col].move(i)
				rp := &pl.Ranks[r]
				rp.Moves = append(rp.Moves, ring[h.to])
				// A closed ring's position 0 is its last one's block, which
				// walk computes on at the end instead.
				rp.Computes = append(rp.Computes, i > 0 || !ms[col].closed)
			}
		}
	}
	return pl, nil
}
