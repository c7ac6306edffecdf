package phys

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/vec"
)

// InitUniform places n particles uniformly at random inside the box with
// small random velocities, using the deterministic generator seeded with
// seed. IDs are assigned 0..n-1 in order, so the same (n, seed, box)
// triple always yields the identical particle set — the parallel
// correctness tests depend on this.
func InitUniform(n int, box Box, seed uint64) []Particle {
	r := vec.NewRNG(seed)
	ps := make([]Particle, n)
	for i := range ps {
		p := &ps[i]
		p.ID = uint32(i)
		p.Pos.X = r.Range(0, box.L)
		p.Vel.X = r.Range(-0.01, 0.01)
		if box.Dim >= 2 {
			p.Pos.Y = r.Range(0, box.L)
			p.Vel.Y = r.Range(-0.01, 0.01)
		}
	}
	return ps
}

// InitLattice places n particles on a jittered regular lattice. The near
// uniform density matches the paper's requirement that "the particle
// distribution remains nearly uniform over time" for the load-balanced
// cutoff experiments.
func InitLattice(n int, box Box, seed uint64) []Particle {
	r := vec.NewRNG(seed)
	ps := make([]Particle, n)
	if box.Dim == 1 {
		h := box.L / float64(n)
		for i := range ps {
			ps[i].ID = uint32(i)
			ps[i].Pos.X = (float64(i)+0.5)*h + r.Range(-0.2, 0.2)*h
			ps[i].Vel.X = r.Range(-0.01, 0.01)
		}
		return ps
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	h := box.L / float64(side)
	for i := range ps {
		row, col := i/side, i%side
		ps[i].ID = uint32(i)
		ps[i].Pos.X = (float64(col)+0.5)*h + r.Range(-0.2, 0.2)*h
		ps[i].Pos.Y = (float64(row)+0.5)*h + r.Range(-0.2, 0.2)*h
		ps[i].Vel.X = r.Range(-0.01, 0.01)
		ps[i].Vel.Y = r.Range(-0.01, 0.01)
	}
	return ps
}

// SortByID reorders particles by ascending ID, the canonical order used
// when comparing parallel results against the serial reference. It does
// not allocate (the cutoff loop sorts each step's arrivals).
func SortByID(ps []Particle) {
	slices.SortFunc(ps, func(a, b Particle) int { return cmp.Compare(a.ID, b.ID) })
}
