package comm

// Typed collectives: the zero-copy counterparts of Bcast and ReduceF64s
// the timestep loops run on. They walk the same tree stage for stage —
// same peer schedule, same combination order — so the message counts,
// the per-hop byte charges, and the floating-point results are identical
// to the encoded path bit for bit; only the serialization work
// disappears.

import (
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

// ReduceF64sInPlace element-wise sums vals across all ranks with the
// same tree and combination order as ReduceF64s — so the result is
// bit-identical — but accumulates into the callers' slices instead of
// serializing: non-root ranks hand their slice to the
// parent (ownership transfers; see the typed-transport contract for
// when it may be written again — the timestep loops rely on the next
// step's broadcast) and return nil, and root returns vals itself holding
// the total. The steady state allocates nothing.
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
