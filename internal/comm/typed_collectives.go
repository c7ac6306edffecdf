package comm

// Typed collectives: the zero-copy counterparts of Bcast and ReduceF64s
// the timestep loops run on. They mirror the encoded implementations
// stage for stage — same algorithm selection, same peer schedule, same
// combination order — so the message counts, the per-hop byte charges,
// and the floating-point results are identical to the encoded path bit
// for bit; only the serialization work disappears.

import (
	"repro/internal/obs"
	"repro/internal/phys"
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
	alias, spent := c.bcastParticles(root, ps)
	out := append(dst[:0], alias...)
	c.recycle(spent)
	c.tr.Collective(obs.KindBcast, t0, phys.WireBytes(len(alias)))
	return out
}

// bcastParticles moves the payload alias along the same peer schedule as
// the encoded bcast and returns the alias the caller holds — and, when
// the caller received it and forwarded it to no one, the message it came
// in, which the caller recycles after copying (the zero message
// otherwise: a forwarded slice is aliased downstream).
func (c *Comm) bcastParticles(root int, ps []phys.Particle) (alias []phys.Particle, spent message) {
	n := c.Size()
	recv := func(from int) {
		spent = c.recvMsg(from, tagBcast)
		ps = spent.particlesPayload(c)
	}
	send := func(to int) {
		c.SendParticles(to, tagBcast, ps)
		spent = message{}
	}
	switch c.opts.Collectives {
	case Flat:
		if c.rank == root {
			for r := 0; r < n; r++ {
				if r != root {
					send(r)
				}
			}
		} else {
			recv(root)
		}
	case Ring:
		prev := (c.rank - 1 + n) % n
		next := (c.rank + 1) % n
		if c.rank != root {
			recv(prev)
		}
		if next != root {
			send(next)
		}
	default:
		// Binomial tree, mirroring fanOut.
		vr := (c.rank - root + n) % n
		mask := 1
		for mask < n {
			if vr&mask != 0 {
				recv((vr - mask + root) % n)
				break
			}
			mask <<= 1
		}
		mask >>= 1
		for mask > 0 {
			if vr+mask < n {
				send((vr + mask + root) % n)
			}
			mask >>= 1
		}
	}
	return ps, spent
}

// ReduceF64sInPlace element-wise sums vals across all ranks with the
// same algorithm, peer schedule, and combination order as ReduceF64s —
// so the result is bit-identical — but accumulates into the callers'
// slices instead of serializing: non-root ranks hand their slice to the
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
	n := c.Size()
	switch c.opts.Collectives {
	case Flat:
		if c.rank != root {
			c.SendF64s(root, tagReduce, vals)
			return nil
		}
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			c.recvAddF64s(vals, r)
		}
		return vals
	case Ring:
		next := (c.rank + 1) % n
		prev := (c.rank - 1 + n) % n
		start := (root + 1) % n
		if c.rank != start {
			c.recvAddF64s(vals, prev)
		}
		if c.rank != root {
			c.SendF64s(next, tagReduce, vals)
			return nil
		}
		return vals
	default:
		// Binomial tree, mirroring fanInCombine.
		vr := (c.rank - root + n) % n
		mask := 1
		for mask < n {
			if vr&mask == 0 {
				if vr+mask < n {
					c.recvAddF64s(vals, (vr+mask+root)%n)
				}
			} else {
				dst := (vr - mask + root) % n
				c.SendF64s(dst, tagReduce, vals)
				return nil
			}
			mask <<= 1
		}
		return vals
	}
}

// recvAddF64s receives a reduction contribution from rank `from` and
// adds it into vals. The received slice is dropped here, so one that was
// decoded off a socket goes back to the rank's spares.
func (c *Comm) recvAddF64s(vals []float64, from int) {
	m := c.recvMsg(from, tagReduce)
	addF64s(vals, m.f64sPayload(c))
	c.recycle(m)
}
