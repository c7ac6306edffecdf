package core

import (
	"fmt"

	"repro/internal/topo"
)

// CutoffSchedule is the shifted-buffer schedule of the distance-limited
// algorithms (Algorithm 2 in 1D, its serpentine generalization in 2D).
//
// The import region of a team is the set of teams within Chebyshev
// distance M, linearized in serpentine order. Replication layer k of each
// team is responsible for the window positions k, k+C, k+2C, …; buffers
// travel between layer-k processors so that at step i every layer-k
// processor holds the buffer of the team at relative offset
// Seq[k + i·C]. The skew move positions the buffer at Seq[k]; subsequent
// moves jump C serpentine positions, which is a short vector in the team
// grid because consecutive serpentine entries are adjacent.
type CutoffSchedule struct {
	M   int // cutoff span in team widths
	C   int // replication factor
	Dim int // 1 or 2
	Seq []topo.Offset
}

// NewCutoffSchedule validates the parameters and builds the schedule.
// The paper requires the replication factor to "fit inside" the
// interaction diameter; the exact form of that constraint here is
// c ≤ |window|, so every layer has at least one window position.
// Dimensions 1–3 are supported; the executable algorithm in this
// repository uses 1 and 2 (the paper's evaluation), while the 3D
// schedule backs the higher-dimensional cost study in internal/model.
func NewCutoffSchedule(m, c, dim int) (*CutoffSchedule, error) {
	if m < 1 {
		return nil, fmt.Errorf("core: cutoff span m=%d must be at least 1", m)
	}
	if dim < 1 || dim > 3 {
		return nil, fmt.Errorf("core: unsupported cutoff dimension %d", dim)
	}
	w := topo.WindowSize(m, dim)
	if c < 1 || c > w {
		return nil, fmt.Errorf("core: replication factor c=%d outside window of %d (m=%d, dim=%d)", c, w, m, dim)
	}
	return &CutoffSchedule{M: m, C: c, Dim: dim, Seq: topo.Serpentine(m, dim)}, nil
}

// Steps returns the number of shift-and-update steps layer k performs:
// the number of window positions congruent to k modulo C. Layers may
// differ by one step when C does not divide the window size — the load
// imbalance the paper observes in its cutoff experiments.
func (s *CutoffSchedule) Steps(k int) int {
	if k < 0 || k >= s.C {
		panic(fmt.Sprintf("core: layer %d outside replication factor %d", k, s.C))
	}
	return (len(s.Seq) - k + s.C - 1) / s.C
}

// Offset returns the window offset layer k handles at step i, i.e. the
// relative team whose buffer the layer updates against.
func (s *CutoffSchedule) Offset(k, i int) topo.Offset {
	idx := k + i*s.C
	if idx >= len(s.Seq) {
		panic(fmt.Sprintf("core: step %d beyond schedule of layer %d", i, k))
	}
	return s.Seq[idx]
}

// Move returns the vector by which layer k's buffer travels to arrive at
// step i's position: the skew move for i = 0 (from the home position,
// offset zero, to Seq[k]) and the C-stride serpentine jump afterwards.
// A buffer at relative offset δ sits on the processor at team t − δ for
// target team t, so the processor-level shift is the negation of the
// offset change.
func (s *CutoffSchedule) Move(k, i int) topo.Offset {
	var prev topo.Offset // home: the buffer starts on its own team
	if i > 0 {
		prev = s.Offset(k, i-1)
	}
	cur := s.Offset(k, i)
	return topo.Offset{DX: prev.DX - cur.DX, DY: prev.DY - cur.DY, DZ: prev.DZ - cur.DZ}
}
