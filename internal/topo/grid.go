// Package topo provides the process-geometry machinery the algorithms and
// machine models share: the c × p/c replication grid of the
// communication-avoiding algorithms, d-dimensional team grids for spatial
// decompositions, serpentine linearizations of cutoff import regions, and
// a 3D torus geometry with dimension-ordered routing for the network
// models.
package topo

import "fmt"

// Grid is the two-dimensional processor arrangement of the paper's
// algorithms: Rows = c replication layers and Cols = p/c teams. Ranks are
// numbered row-major, so a team (column) consists of ranks
// {col, Cols+col, 2·Cols+col, ...} and the team leader is row 0.
type Grid struct {
	Rows, Cols int
}

// NewGrid validates that p is divisible by c and returns the c × p/c
// grid.
func NewGrid(p, c int) (Grid, error) {
	if p <= 0 || c <= 0 {
		return Grid{}, fmt.Errorf("topo: non-positive grid parameters p=%d c=%d", p, c)
	}
	if p%c != 0 {
		return Grid{}, fmt.Errorf("topo: replication factor c=%d does not divide p=%d", c, p)
	}
	return Grid{Rows: c, Cols: p / c}, nil
}

// Size returns the total number of ranks.
func (g Grid) Size() int { return g.Rows * g.Cols }

// Rank returns the rank at (row, col).
func (g Grid) Rank(row, col int) int {
	if row < 0 || row >= g.Rows || col < 0 || col >= g.Cols {
		panic(fmt.Sprintf("topo: coordinate (%d,%d) outside %dx%d grid", row, col, g.Rows, g.Cols))
	}
	return row*g.Cols + col
}

// Coord returns the (row, col) of a rank.
func (g Grid) Coord(rank int) (row, col int) {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("topo: rank %d outside %dx%d grid", rank, g.Rows, g.Cols))
	}
	return rank / g.Cols, rank % g.Cols
}

// TeamRanks returns the ranks of team col, leader first.
func (g Grid) TeamRanks(col int) []int {
	out := make([]int, g.Rows)
	for r := 0; r < g.Rows; r++ {
		out[r] = g.Rank(r, col)
	}
	return out
}

// RowRanks returns the ranks of row row in column order.
func (g Grid) RowRanks(row int) []int {
	out := make([]int, g.Cols)
	for c := 0; c < g.Cols; c++ {
		out[c] = g.Rank(row, c)
	}
	return out
}

func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.Rows, g.Cols) }

// mod returns a modulo m mapped into [0, m).
func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}

// Mod is the exported non-negative modulo used by schedule code in other
// packages.
func Mod(a, m int) int { return mod(a, m) }
