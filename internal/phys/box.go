package phys

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Boundary selects how particles behave at the edge of the simulation box.
type Boundary int

const (
	// Reflective bounces particles off the walls, negating the
	// corresponding velocity component. This is the paper's setup.
	Reflective Boundary = iota
	// Periodic wraps particles around to the opposite side. Offered for
	// testing and for cutoff runs that want a translation-invariant
	// domain (no boundary load imbalance).
	Periodic
)

func (b Boundary) String() string {
	switch b {
	case Reflective:
		return "reflective"
	case Periodic:
		return "periodic"
	default:
		return fmt.Sprintf("Boundary(%d)", int(b))
	}
}

// Box is the simulation domain [0, L]^Dim with a boundary condition.
// Dim is 1 or 2; in one dimension the Y coordinate is identically zero.
type Box struct {
	L        float64
	Dim      int
	Boundary Boundary
}

// NewBox returns a box of side length l in dim dimensions. It panics for
// dimensions other than 1 and 2, which are the ones the paper evaluates.
func NewBox(l float64, dim int, b Boundary) Box {
	if dim != 1 && dim != 2 {
		panic(fmt.Sprintf("phys: unsupported dimension %d", dim))
	}
	if l <= 0 {
		panic("phys: non-positive box length")
	}
	return Box{L: l, Dim: dim, Boundary: b}
}

// Apply enforces the boundary condition on a single particle.
func (b Box) Apply(p *Particle) {
	p.Pos.X, p.Vel.X = b.apply1(p.Pos.X, p.Vel.X)
	if b.Dim >= 2 {
		p.Pos.Y, p.Vel.Y = b.apply1(p.Pos.Y, p.Vel.Y)
	} else {
		p.Pos.Y, p.Vel.Y = 0, 0
	}
}

// apply1 applies the boundary to one coordinate and its velocity. Within
// one box length that is one reflection or one wrap; beyond it, x is
// first folded by the boundary's period (2L for the mirroring walls).
func (b Box) apply1(x, v float64) (float64, float64) {
	if b.Boundary == Periodic {
		if x < -b.L || x >= 2*b.L {
			x = fold(x, b.L)
		}
		if x < 0 {
			x += b.L
		}
		if x >= b.L {
			x -= b.L
		}
		return x, v
	}
	if x < -b.L || x > 2*b.L {
		x = fold(x, 2*b.L)
	}
	if x < 0 {
		x, v = -x, -v
	}
	if x > b.L {
		x, v = 2*b.L-x, -v
	}
	return x, v
}

// fold returns x modulo period in [0, period] (period itself only by
// rounding); a non-finite x gives NaN.
func fold(x, period float64) float64 {
	x = math.Mod(x, period)
	if x < 0 {
		x += period
	}
	return x
}

// inReach reports whether pos lies within one box length of the box on
// every axis, where the boundary condition is at most one reflection or
// one wrap. A non-finite coordinate is out of reach.
func (b Box) inReach(pos vec.Vec2) bool {
	in := func(x float64) bool { return x >= -b.L && x <= 2*b.L }
	return in(pos.X) && (b.Dim < 2 || in(pos.Y))
}

// Contains reports whether position pos lies inside the box (inclusive).
func (b Box) Contains(pos vec.Vec2) bool {
	if pos.X < 0 || pos.X > b.L {
		return false
	}
	if b.Dim >= 2 && (pos.Y < 0 || pos.Y > b.L) {
		return false
	}
	return true
}

// MinImage returns the minimum-image displacement from q to p under the
// box's boundary condition. For reflective boxes it is the plain
// difference.
func (b Box) MinImage(p, q vec.Vec2) vec.Vec2 {
	d := p.Sub(q)
	if b.Boundary == Periodic {
		d.X = minImage1(d.X, b.L)
		if b.Dim >= 2 {
			d.Y = minImage1(d.Y, b.L)
		}
	}
	return d
}

func minImage1(d, l float64) float64 {
	for d > l/2 {
		d -= l
	}
	for d < -l/2 {
		d += l
	}
	return d
}

// Dist returns the distance between p and q under the box's boundary
// condition (minimum-image for periodic boxes).
func (b Box) Dist(p, q vec.Vec2) float64 { return b.MinImage(p, q).Norm() }
