package comm

// Typed collectives: the broadcast and reductions of particle and
// float64 payloads, moved by reference down and up the binomial tree of
// topo.BinomialParent (recursive doubling for AllreduceF64s on a
// power-of-two communicator). The peer schedule and combination order
// are fixed by the communicator's size, so the results are
// bit-reproducible, and on the socket mesh — which copies every message
// — the same bits. The timestep loops run AllreduceF64s.

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/topo"
)

// BcastParticles distributes root's particles to every rank of the
// communicator and returns the caller's private replica, appended into
// dst[:0] (pass a retained scratch to make the steady state
// allocation-free). Non-root ranks pass ps nil.
//
// Internally the payload travels by reference: every rank of the
// communicator aliases root's slice until it has copied into its own
// replica. Root may therefore not write ps again until a
// synchronization point transitively orders every member behind the
// reuse — the timestep loops use the team force reduction, which every
// member enters only after taking its copy. (A member that received its
// alias over a socket and passed it to nobody holds the only reference,
// and recycles it once copied; see Comm.recycle.)
func (c *Comm) BcastParticles(root int, ps, dst []phys.Particle) []phys.Particle {
	c.checkPeer(root)
	if c.Size() == 1 {
		return append(dst[:0], ps...)
	}
	t0 := c.tr.Now()
	var spent message
	alias := c.bcastParticles(root, ps, &spent)
	out := append(dst[:0], alias...)
	c.recycle(&spent)
	c.tr.Collective(obs.KindBcast, t0, phys.WireBytes(len(alias)))
	return out
}

// bcastParticles moves the payload alias down the tree of fanOut and
// returns the alias the caller holds. When the caller received it and
// forwarded it to no one, *spent is left holding the message it came
// in, which the caller recycles after copying (the zero message
// otherwise: a forwarded slice is aliased downstream).
func (c *Comm) bcastParticles(root int, ps []phys.Particle, spent *message) []phys.Particle {
	vr := c.virtual(root)
	if vr != 0 {
		c.recvMsg(c.actual(root, topo.BinomialParent(vr)), TagBcast, spent)
		ps = spent.particlesPayload(c)
	}
	for k := topo.BinomialChildren(vr, c.Size()) - 1; k >= 0; k-- {
		c.SendParticles(c.actual(root, vr+1<<k), TagBcast, ps)
		*spent = message{}
	}
	return ps
}

// ReduceF64sInPlace element-wise sums vals across all ranks up the
// binomial tree, each node adding its children's partial sums in turn,
// the nearest child first, and accumulates into the callers' slices:
// non-root ranks hand their slice to the
// parent (ownership transfers; see the typed-transport contract for
// when it may be written again — AllreduceF64s, which the timestep
// loops run, broadcasts the total down the same tree, so a member has
// it only after its parent's read) and return nil, and root returns
// vals itself holding the total. The steady state allocates nothing.
func (c *Comm) ReduceF64sInPlace(root int, vals []float64) []float64 {
	c.checkPeer(root)
	if c.Size() == 1 {
		return vals
	}
	t0 := c.tr.Now()
	out := c.reduceF64sInPlace(root, vals)
	c.tr.Collective(obs.KindReduce, t0, 8*len(vals))
	return out
}

func (c *Comm) reduceF64sInPlace(root int, vals []float64) []float64 {
	vr := c.virtual(root)
	for k, kids := 0, topo.BinomialChildren(vr, c.Size()); k < kids; k++ {
		c.recvAddF64s(vals, c.actual(root, vr+1<<k))
	}
	if vr != 0 {
		c.SendF64s(c.actual(root, topo.BinomialParent(vr)), TagReduce, vals)
		return nil
	}
	return vals
}

// recvAddF64s receives a reduction contribution from rank `from` and
// adds it into vals. The received slice is dropped here, so one that was
// decoded off a socket goes back to the rank's spares.
func (c *Comm) recvAddF64s(vals []float64, from int) {
	var m message
	c.recvMsg(from, TagReduce, &m)
	addF64s(vals, m.f64sPayload(c))
	c.recycle(&m)
}

// AllreduceF64s element-wise sums vals across all ranks and returns the
// total on every rank, bit for bit the total ReduceF64sInPlace leaves at
// root 0. All ranks pass slices of equal length.
//
// On a power-of-two communicator it runs recursive doubling: in round j
// each rank exchanges its partial sum with rank r ^ 1<<j and adds the
// two, the lower rank's first. Those are the two partial sums the
// binomial tree adds at the node that joins the same two subtrees (the
// root's total is ((x0+x1)+(x2+x3))+…), so every rank ends with the
// root's bits after log₂ n exchanges of len(vals) floats. Any other
// size reduces to rank 0 on the binomial tree (ReduceF64sInPlace) and
// broadcasts the total down it, which keeps the bits too.
//
// Loans. Payloads travel by reference, so a partner may read vals, and
// the partial sums the communicator keeps, after this call has returned
// here. The loan ends when this rank's next AllreduceF64s on the
// communicator returns: a rank's read in round j of one call precedes
// its send in round j of the next, which this rank receives in its next
// call (the tree's reads likewise precede the next call's reduction
// sends). So a caller that refills vals every call alternates two
// buffers (Alternating), as the communicator does its own storage. The
// returned total is read-only and valid as long as vals's loan. The
// steady state allocates nothing.
func (c *Comm) AllreduceF64s(vals []float64) []float64 {
	n := c.Size()
	if n == 1 {
		return vals
	}
	if n&(n-1) != 0 {
		return c.bcastTotal(c.ReduceF64sInPlace(0, vals), len(vals))
	}
	t0 := c.tr.Now()
	rounds := bits.TrailingZeros(uint(n))
	sums := c.sums.Next(rounds * len(vals))
	cur := vals
	for j := 0; j < rounds; j++ {
		partner := c.rank ^ 1<<j
		m := f64sMsg(cur)
		c.sendrecvMsg(partner, TagReduce, &m, partner)
		theirs := m.f64sPayload(c)
		out := sums[j*len(vals) : (j+1)*len(vals)]
		if c.rank&(1<<j) == 0 {
			sumF64s(out, cur, theirs)
		} else {
			sumF64s(out, theirs, cur)
		}
		c.recycle(&m)
		cur = out
	}
	c.tr.Collective(obs.KindReduce, t0, 8*len(vals))
	return cur
}

// bcastTotal is AllreduceF64s's broadcast of the total that root 0
// holds (others pass nil) down the binomial tree: a member forwards the
// slice it received by reference and returns a copy in its own
// storage, so that one decoded off a socket goes back to the spares.
func (c *Comm) bcastTotal(total []float64, n int) []float64 {
	t0 := c.tr.Now()
	var m message
	if c.rank != 0 {
		c.recvMsg(topo.BinomialParent(c.rank), TagBcast, &m)
		total = m.f64sPayload(c)
	}
	for k := topo.BinomialChildren(c.rank, c.Size()) - 1; k >= 0; k-- {
		c.SendF64s(c.rank+1<<k, TagBcast, total)
		m = message{}
	}
	if c.rank != 0 {
		total = append(c.sums.Next(n)[:0], total...)
		c.recycle(&m)
	}
	c.tr.Collective(obs.KindBcast, t0, 8*n)
	return total
}

// Alternating is storage for a payload that is lent anew every call of
// a collective and whose loan ends one call later, as AllreduceF64s's
// are: two halves, handed out in turn.
type Alternating struct {
	buf    []float64
	parity int
}

// Next returns n floats of the half not handed out last, growing the
// storage — both halves afresh, as the other may be on loan, each with a
// quarter of headroom for a payload that drifts (a cutoff team's) — when
// a half is shorter.
func (a *Alternating) Next(n int) []float64 {
	if len(a.buf)/2 < n {
		a.buf = make([]float64, 2*(n+n/4))
	}
	a.parity ^= 1
	h := a.parity * (len(a.buf) / 2)
	return a.buf[h : h+n : h+n]
}

// sumF64s writes a + b element-wise into dst.
func sumF64s(dst, a, b []float64) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(fmt.Sprintf("comm: allreduce length mismatch %d vs %d", len(a), len(b)))
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}
