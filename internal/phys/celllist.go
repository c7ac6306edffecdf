package phys

import (
	"math"

	"repro/internal/vec"
)

// CellList is a uniform spatial grid whose cell side is at least the
// cutoff radius, so that every interacting pair lies in the same or an
// adjacent cell. It is the standard serial data structure for
// distance-limited force evaluation and serves as the second, independent
// reference against which the parallel cutoff algorithms are checked.
type CellList struct {
	box   Box
	rc    float64
	side  int // cells per box dimension
	width float64
	cells [][]int // particle indices per cell, row-major
	// neighbors[c] lists the distinct cells adjacent to c (including c),
	// precomputed once at construction: the cell graph depends only on
	// the grid geometry, not on the particles, so the per-cell adjacency
	// set is not rebuilt inside Forces.
	neighbors [][]int
}

// NewCellList builds a cell list over ps for cutoff radius rc. rc must be
// positive and no larger than the box length.
func NewCellList(ps []Particle, rc float64, box Box) *CellList {
	if rc <= 0 || rc > box.L {
		panic("phys: cell list cutoff out of range")
	}
	side := int(math.Floor(box.L / rc))
	if side < 1 {
		side = 1
	}
	cl := &CellList{
		box:   box,
		rc:    rc,
		side:  side,
		width: box.L / float64(side),
	}
	ncells := side
	if box.Dim == 2 {
		ncells = side * side
	}
	cl.cells = make([][]int, ncells)
	for i := range ps {
		c := cl.cellOf(ps[i].Pos)
		cl.cells[c] = append(cl.cells[c], i)
	}
	cl.neighbors = make([][]int, ncells)
	for c := range cl.neighbors {
		cl.neighbors[c] = cl.neighborCells(c)
	}
	return cl
}

func (cl *CellList) cellOf(pos vec.Vec2) int {
	cx := cl.coord(pos.X)
	if cl.box.Dim == 1 {
		return cx
	}
	return cl.coord(pos.Y)*cl.side + cx
}

func (cl *CellList) coord(x float64) int {
	c := int(x / cl.width)
	if c < 0 {
		c = 0
	}
	if c >= cl.side {
		c = cl.side - 1
	}
	return c
}

// neighborCells computes the distinct cells adjacent to cell c (including
// c itself), honoring the box's boundary condition: periodic boxes wrap,
// reflective boxes truncate at the edges. Wrapping in tiny grids can
// alias several offsets onto one cell; duplicates are removed so no pair
// is evaluated twice. Called only from NewCellList to fill the neighbor
// table; Forces reads the table.
func (cl *CellList) neighborCells(c int) []int {
	var raw []int
	if cl.box.Dim == 1 {
		for d := -1; d <= 1; d++ {
			if n, ok := cl.shiftCoord(c, d); ok {
				raw = append(raw, n)
			}
		}
	} else {
		cx, cy := c%cl.side, c/cl.side
		for dy := -1; dy <= 1; dy++ {
			ny, oky := cl.shiftCoord(cy, dy)
			if !oky {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				nx, okx := cl.shiftCoord(cx, dx)
				if !okx {
					continue
				}
				raw = append(raw, ny*cl.side+nx)
			}
		}
	}
	// Dedup in place: raw never exceeds 9 entries, so a linear scan over
	// the kept prefix beats a map (and allocates nothing beyond raw).
	out := raw[:0]
dedup:
	for _, n := range raw {
		for _, kept := range out {
			if kept == n {
				continue dedup
			}
		}
		out = append(out, n)
	}
	return out
}

func (cl *CellList) shiftCoord(c, d int) (int, bool) {
	n := c + d
	if cl.box.Boundary == Periodic {
		return ((n % cl.side) + cl.side) % cl.side, true
	}
	if n < 0 || n >= cl.side {
		return 0, false
	}
	return n, true
}

// Forces evaluates the cutoff force on every particle using the cell list
// and stores it in the accumulators. law.Cutoff must equal the rc the
// list was built with. With a single cell per dimension it degrades
// gracefully to brute force. It is the list's one traversal: every
// candidate pair goes through Law.Pair, as in BruteForceCutoff, and only
// the set of candidates differs — which is what makes it an independent
// check of the parallel cutoff algorithms and not a third kernel. It
// walks the precomputed neighbor table and allocates nothing.
func (cl *CellList) Forces(ps []Particle, law Law) {
	if law.Cutoff != cl.rc {
		panic("phys: law cutoff differs from cell list cutoff")
	}
	ClearForces(ps)
	rc2 := cl.rc * cl.rc
	open := law
	open.Cutoff = 0
	for c := range cl.cells {
		for _, ti := range cl.cells[c] {
			t := &ps[ti]
			f := t.Force
			for _, nc := range cl.neighbors[c] {
				for _, si := range cl.cells[nc] {
					if si == ti {
						continue
					}
					d := cl.box.MinImage(t.Pos, ps[si].Pos)
					if d.Norm2() > rc2 {
						continue
					}
					f = f.Add(open.Pair(d, vec.Vec2{}))
				}
			}
			t.Force = f
		}
	}
}
