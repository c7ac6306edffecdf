package core

import (
	"fmt"

	"repro/internal/phys"
)

// Plan is one timestep of Algorithm 1 or 2 as its ranks execute it,
// written out for a consumer that prices the schedule instead of running
// it (internal/netsim). It is built by the functions the drivers' build
// closures call — the move lists, the pairing's window test and the
// migrator's partner rule — so it says what the drivers run, not a
// second description of it.
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
	// Migrates lists the world ranks a leader sends the particles that
	// left its team's region to, in sending order. Empty off the leaders
	// and for Algorithm 1.
	Migrates []int
}

// AllPairsPlan is Algorithm 1's timestep on p ranks at replication
// factor c, which must satisfy c² | p.
func AllPairsPlan(p, c int) (*Plan, error) {
	if c <= 0 || p <= 0 || p%(c*c) != 0 {
		return nil, fmt.Errorf("core: all-pairs needs c² | p, got p=%d c=%d", p, c)
	}
	cg, err := newCommGrid(p, c)
	if err != nil {
		return nil, err
	}
	return newPlan(cg, func(row, col int) moves { return allPairsMoves(cg.Cols, c, row, col) }, nil), nil
}

// CutoffPlan is Algorithm 2's timestep on p ranks at replication factor
// c with cutoff radius rc in box, under the constraints NewCutoff checks.
func CutoffPlan(p, c int, rc float64, box phys.Box) (*Plan, error) {
	cg, sched, w, err := newCutoffLayout(p, c, rc, box)
	if err != nil {
		return nil, err
	}
	return newPlan(cg, func(layer, team int) moves { return cutoffMoves(sched, w.tg, layer, team) }, &w), nil
}

// newPlan writes out the plan of every rank of cg, whose move list
// movesOf gives. It follows each ring's buffers through the moves to
// know which team's block a rank holds at each position; w decides
// which of those the rank computes on and whom its leader migrates to
// (nil: every block, and no migration — Algorithm 1's everyBlock).
func newPlan(cg *commGrid, movesOf func(row, col int) moves, w *windowed) *Plan {
	pl := &Plan{Teams: cg.teams, Ranks: make([]RankPlan, cg.Size())}
	T := cg.Cols
	held, next := make([]int, T), make([]int, T) // the loader of the block each team holds
	for row, ring := range cg.rows {
		ms := make([]moves, T)
		for col := range ms {
			ms[col] = movesOf(row, col)
			held[col] = col
		}
		for i := 0; i <= ms[0].last; i++ {
			for col, r := range ring {
				h, _ := ms[col].move(i)
				next[col] = held[h.from]
				rp := &pl.Ranks[r]
				rp.Moves = append(rp.Moves, ring[h.to])
				// A closed ring's position 0 is its last one's block, which
				// walk computes on at the end instead.
				rp.Computes = append(rp.Computes, (i > 0 || !ms[col].closed) && (w == nil || w.inWindow(col, next[col])))
			}
			held, next = next, held
		}
	}
	if w != nil {
		for team, r := range cg.rows[0] {
			for _, dir := range w.dirs {
				if to, ok := migrationPeer(w.tg, team, dir, w.wrap); ok {
					pl.Ranks[r].Migrates = append(pl.Ranks[r].Migrates, cg.rows[0][to])
				}
			}
		}
	}
	return pl
}
