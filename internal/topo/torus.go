package topo

import "fmt"

// Torus is a three-dimensional torus interconnect geometry like the Cray
// Gemini network of Hopper or the BlueGene/P torus of Intrepid. Nodes are
// identified by their linear index; ranks map onto nodes in natural
// (x-fastest) order via NodeOf, with several MPI ranks per node when
// cores-per-node > 1.
type Torus struct {
	Dims         [3]int
	CoresPerNode int
}

// NewTorus returns a torus with the given per-dimension sizes and cores
// per node. All sizes and the core count must be positive.
func NewTorus(x, y, z, coresPerNode int) (Torus, error) {
	if x <= 0 || y <= 0 || z <= 0 || coresPerNode <= 0 {
		return Torus{}, fmt.Errorf("topo: invalid torus %dx%dx%d cores=%d", x, y, z, coresPerNode)
	}
	return Torus{Dims: [3]int{x, y, z}, CoresPerNode: coresPerNode}, nil
}

// Nodes returns the number of nodes in the torus.
func (t Torus) Nodes() int { return t.Dims[0] * t.Dims[1] * t.Dims[2] }

// Ranks returns the number of MPI ranks the torus hosts.
func (t Torus) Ranks() int { return t.Nodes() * t.CoresPerNode }

// NodeOf returns the node hosting rank, packing CoresPerNode consecutive
// ranks per node, the default affinity of both machines in the paper.
func (t Torus) NodeOf(rank int) int {
	if rank < 0 || rank >= t.Ranks() {
		panic(fmt.Sprintf("topo: rank %d outside torus with %d ranks", rank, t.Ranks()))
	}
	return rank / t.CoresPerNode
}

// Coord returns the (x, y, z) coordinate of a node.
func (t Torus) Coord(node int) (x, y, z int) {
	if node < 0 || node >= t.Nodes() {
		panic(fmt.Sprintf("topo: node %d outside torus of %d", node, t.Nodes()))
	}
	x = node % t.Dims[0]
	node /= t.Dims[0]
	y = node % t.Dims[1]
	z = node / t.Dims[1]
	return
}

// Node returns the node index at coordinate (x, y, z).
func (t Torus) Node(x, y, z int) int {
	if x < 0 || x >= t.Dims[0] || y < 0 || y >= t.Dims[1] || z < 0 || z >= t.Dims[2] {
		panic(fmt.Sprintf("topo: coordinate (%d,%d,%d) outside torus %v", x, y, z, t.Dims))
	}
	return x + t.Dims[0]*(y+t.Dims[1]*z)
}

// torusDelta returns the signed shortest displacement from a to b on a
// ring of length n, preferring the positive direction on ties.
func torusDelta(a, b, n int) int {
	d := mod(b-a, n)
	if d > n/2 {
		d -= n
	}
	return d
}

// Hops returns the dimension-ordered routing distance in links between
// the nodes hosting ranks a and b. Ranks on the same node are zero hops
// apart.
func (t Torus) Hops(a, b int) int {
	na, nb := t.NodeOf(a), t.NodeOf(b)
	if na == nb {
		return 0
	}
	ax, ay, az := t.Coord(na)
	bx, by, bz := t.Coord(nb)
	return absInt(torusDelta(ax, bx, t.Dims[0])) +
		absInt(torusDelta(ay, by, t.Dims[1])) +
		absInt(torusDelta(az, bz, t.Dims[2]))
}

// Link is one directed torus link: it leaves From along dimension Dim in
// direction Dir (+1 or -1).
type Link struct {
	From int // node index
	Dim  int // 0, 1, or 2
	Dir  int // +1 or -1
}

// Route returns the directed links traversed by a dimension-ordered
// (x-then-y-then-z) minimal route between the nodes of ranks a and b.
// Same-node traffic yields an empty route.
func (t Torus) Route(a, b int) []Link {
	na, nb := t.NodeOf(a), t.NodeOf(b)
	if na == nb {
		return nil
	}
	x, y, z := t.Coord(na)
	bx, by, bz := t.Coord(nb)
	cur := [3]int{x, y, z}
	dst := [3]int{bx, by, bz}
	var links []Link
	for dim := 0; dim < 3; dim++ {
		d := torusDelta(cur[dim], dst[dim], t.Dims[dim])
		dir := 1
		if d < 0 {
			dir = -1
			d = -d
		}
		for step := 0; step < d; step++ {
			var c [3]int = cur
			links = append(links, Link{From: t.Node(c[0], c[1], c[2]), Dim: dim, Dir: dir})
			cur[dim] = mod(cur[dim]+dir, t.Dims[dim])
		}
	}
	return links
}

// Balanced3D returns torus dimensions (x ≤ y ≤ z) with
// x·y·z·coresPerNode ≥ p, choosing sides as close to cubic as
// possible. It is how the machine models size a partition for a run
// of p ranks.
//
// The search minimizes the node count subject to a skew cap
// (z ≤ 2·x+1), then breaks product ties toward the smallest z−x:
// exact factorizations win when a balanced one exists (96 → 4×4×6,
// 12 → 2×2×3), while degenerate ones — prime or otherwise
// skinny-only p, whose sole exact factorization is 1×1×p — round up
// to the nearest balanced box instead (7 → 2×2×2).
func Balanced3D(p, coresPerNode int) (x, y, z int) {
	nodes := (p + coresPerNode - 1) / coresPerNode
	if nodes < 1 {
		nodes = 1
	}
	bestProd, bestSkew := -1, 0
	for cx := 1; cx*cx*cx <= 8*nodes; cx++ {
		for cy := cx; cx*cy*cy <= 8*nodes; cy++ {
			cz := (nodes + cx*cy - 1) / (cx * cy)
			if cz < cy {
				cz = cy
			}
			if cz > 2*cx+1 {
				continue
			}
			prod, skew := cx*cy*cz, cz-cx
			if bestProd < 0 || prod < bestProd ||
				(prod == bestProd && (skew < bestSkew ||
					(skew == bestSkew && (cx < x || (cx == x && cy < y))))) {
				x, y, z = cx, cy, cz
				bestProd, bestSkew = prod, skew
			}
		}
	}
	return
}
