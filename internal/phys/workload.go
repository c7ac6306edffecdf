package phys

import (
	"math"

	"repro/internal/vec"
)

// InitClustered places n particles in nClusters Gaussian blobs with the
// given standard deviation, clipped to the box. The paper's analysis
// assumes a uniform distribution for load balance; this generator
// produces the non-uniform workloads that stress the spatial
// decomposition's load balance (the all-pairs algorithm is insensitive
// to spatial distribution because it deals particles to teams by ID, one
// of its practical advantages).
func InitClustered(n int, box Box, nClusters int, sigma float64, seed uint64) []Particle {
	if nClusters < 1 {
		nClusters = 1
	}
	r := vec.NewRNG(seed)
	centers := make([]vec.Vec2, nClusters)
	for i := range centers {
		centers[i].X = r.Range(0.2*box.L, 0.8*box.L)
		if box.Dim >= 2 {
			centers[i].Y = r.Range(0.2*box.L, 0.8*box.L)
		}
	}
	ps := make([]Particle, n)
	for i := range ps {
		c := centers[i%nClusters]
		p := &ps[i]
		p.ID = uint32(i)
		p.Pos.X = clamp(c.X+gaussian(r)*sigma, 0, box.L)
		p.Vel.X = r.Range(-0.01, 0.01)
		if box.Dim >= 2 {
			p.Pos.Y = clamp(c.Y+gaussian(r)*sigma, 0, box.L)
			p.Vel.Y = r.Range(-0.01, 0.01)
		}
	}
	return ps
}

// gaussian returns a standard normal deviate via Box–Muller.
func gaussian(r *vec.RNG) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
