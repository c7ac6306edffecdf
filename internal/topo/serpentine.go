package topo

import "fmt"

// Offset is a relative team displacement inside a cutoff import region.
type Offset struct {
	DX, DY, DZ int
}

// Chebyshev returns max(|DX|, |DY|, |DZ|).
func (o Offset) Chebyshev() int {
	m := absInt(o.DX)
	if d := absInt(o.DY); d > m {
		m = d
	}
	if d := absInt(o.DZ); d > m {
		m = d
	}
	return m
}

// Serpentine returns the offsets of the cutoff import region — all teams
// within Chebyshev distance m, including the origin — linearized so that
// consecutive offsets are unit steps apart. This is the linearization
// the paper recommends for generalizing the shifted-buffer schedule to
// higher dimensions (Section IV-C): shifts are computed along this 1D
// order and mapped back to grid moves.
//
// In 1D (dim = 1) the order is -m, …, m. In 2D it is a boustrophedon
// sweep of the (2m+1)² window. In 3D, planes of constant DZ are swept in
// order, each plane traversed by the 2D boustrophedon, with every other
// plane's traversal reversed so plane boundaries remain unit steps.
func Serpentine(m, dim int) []Offset {
	if m < 0 {
		panic(fmt.Sprintf("topo: negative cutoff span m=%d", m))
	}
	switch dim {
	case 1:
		out := make([]Offset, 0, 2*m+1)
		for dx := -m; dx <= m; dx++ {
			out = append(out, Offset{DX: dx})
		}
		return out
	case 2:
		return serpentine2(m, 0)
	case 3:
		w := 2*m + 1
		out := make([]Offset, 0, w*w*w)
		for i, dz := 0, -m; dz <= m; i, dz = i+1, dz+1 {
			plane := serpentine2(m, dz)
			if i%2 == 1 {
				for j := len(plane) - 1; j >= 0; j-- {
					out = append(out, plane[j])
				}
			} else {
				out = append(out, plane...)
			}
		}
		return out
	default:
		panic(fmt.Sprintf("topo: unsupported serpentine dimension %d", dim))
	}
}

// serpentine2 is the 2D boustrophedon at a fixed DZ.
func serpentine2(m, dz int) []Offset {
	w := 2*m + 1
	out := make([]Offset, 0, w*w)
	for i, dy := 0, -m; dy <= m; i, dy = i+1, dy+1 {
		if i%2 == 0 {
			for dx := -m; dx <= m; dx++ {
				out = append(out, Offset{DX: dx, DY: dy, DZ: dz})
			}
		} else {
			for dx := m; dx >= -m; dx-- {
				out = append(out, Offset{DX: dx, DY: dy, DZ: dz})
			}
		}
	}
	return out
}

// WindowSize returns the number of teams in a Chebyshev-m import region
// in dim dimensions: (2m+1)^dim.
func WindowSize(m, dim int) int {
	w := 2*m + 1
	size := w
	for d := 1; d < dim; d++ {
		size *= w
	}
	return size
}
