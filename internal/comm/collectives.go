package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/obs"
)

// Bcast distributes root's data to every rank of the communicator and
// returns it. Non-root ranks pass nil. The algorithm is selected by the
// communicator's options: a binomial tree (log n stages), a flat linear
// send from the root, or a ring pipeline.
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.checkPeer(root)
	if c.Size() == 1 {
		return data
	}
	t0 := c.tr.Now()
	out := c.bcast(root, data)
	c.tr.Collective(obs.KindBcast, t0, len(out))
	return out
}

func (c *Comm) bcast(root int, data []byte) []byte {
	n := c.Size()
	switch c.opts.Collectives {
	case Flat:
		if c.rank == root {
			for r := 0; r < n; r++ {
				if r != root {
					c.Send(r, tagBcast, data)
				}
			}
			return data
		}
		return c.Recv(root, tagBcast)
	case Ring:
		// Pass the payload around the ring away from the root; the last
		// rank before the root stops forwarding.
		prev := (c.rank - 1 + n) % n
		next := (c.rank + 1) % n
		if c.rank != root {
			data = c.Recv(prev, tagBcast)
		}
		if next != root {
			c.Send(next, tagBcast, data)
		}
		return data
	default:
		return c.fanOut(root, tagBcast, data)
	}
}

// fanOut is the binomial-tree broadcast used by Bcast(Tree) and Barrier.
func (c *Comm) fanOut(root, tag int, data []byte) []byte {
	n := c.Size()
	vr := (c.rank - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := (vr - mask + root) % n
			data = c.Recv(src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < n {
			dst := (vr + mask + root) % n
			c.Send(dst, tag, data)
		}
		mask >>= 1
	}
	return data
}

// fanIn is the binomial-tree reduction skeleton. combine merges a child's
// payload into the accumulator and must be associative; it may be nil
// when no payload is carried (Barrier). The reduced payload is returned
// at the root; other ranks return nil.
func (c *Comm) fanIn(root, tag int, data []byte) []byte {
	return c.fanInCombine(root, tag, data, func(acc, child []byte) []byte { return acc })
}

func (c *Comm) fanInCombine(root, tag int, data []byte, combine func(acc, child []byte) []byte) []byte {
	n := c.Size()
	vr := (c.rank - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask == 0 {
			if vr+mask < n {
				src := (vr + mask + root) % n
				child := c.Recv(src, tag)
				data = combine(data, child)
			}
		} else {
			dst := (vr - mask + root) % n
			c.Send(dst, tag, data)
			return nil
		}
		mask <<= 1
	}
	return data
}

// ReduceF64s element-wise sums vals across all ranks, leaving the result
// at root (other ranks get nil). All ranks must pass slices of equal
// length. The combination order is deterministic for a given size and
// algorithm, so runs are bit-reproducible.
func (c *Comm) ReduceF64s(root int, vals []float64) []float64 {
	c.checkPeer(root)
	if c.Size() == 1 {
		return vals
	}
	t0 := c.tr.Now()
	out := c.reduceF64s(root, vals)
	c.tr.Collective(obs.KindReduce, t0, 8*len(vals))
	return out
}

func (c *Comm) reduceF64s(root int, vals []float64) []float64 {
	n := c.Size()
	switch c.opts.Collectives {
	case Flat:
		if c.rank != root {
			c.Send(root, tagReduce, F64sToBytes(vals))
			return nil
		}
		acc := append([]float64(nil), vals...)
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			addF64s(acc, BytesToF64s(c.Recv(r, tagReduce)))
		}
		return acc
	case Ring:
		// Accumulate along the ring, ending at the root. The rank after
		// the root starts the chain.
		next := (c.rank + 1) % n
		prev := (c.rank - 1 + n) % n
		start := (root + 1) % n
		acc := append([]float64(nil), vals...)
		if c.rank != start {
			addF64s(acc, BytesToF64s(c.Recv(prev, tagReduce)))
		}
		if c.rank != root {
			c.Send(next, tagReduce, F64sToBytes(acc))
			return nil
		}
		return acc
	default:
		out := c.fanInCombine(root, tagReduce, F64sToBytes(vals), func(acc, child []byte) []byte {
			a := BytesToF64s(acc)
			addF64s(a, BytesToF64s(child))
			return F64sToBytes(a)
		})
		if out == nil {
			return nil
		}
		return BytesToF64s(out)
	}
}

// AllreduceF64s sums vals across all ranks and returns the result on
// every rank (reduce to rank 0, then broadcast).
func (c *Comm) AllreduceF64s(vals []float64) []float64 {
	red := c.ReduceF64s(0, vals)
	var payload []byte
	if c.rank == 0 {
		payload = F64sToBytes(red)
	}
	return BytesToF64s(c.Bcast(0, payload))
}

// Gather collects each rank's payload at root, returned as a slice
// indexed by rank. Non-root ranks return nil. Implemented as direct
// sends; the repository uses it only for verification and I/O, never on
// the timestep critical path.
func (c *Comm) Gather(root int, data []byte) [][]byte {
	c.checkPeer(root)
	n := c.Size()
	if n == 1 {
		// Single-rank gather involves no peers: like the other
		// collectives, it must not stamp a zero-peer collective event.
		return [][]byte{data}
	}
	t0 := c.tr.Now()
	defer func() { c.tr.Collective(obs.KindGather, t0, len(data)) }()
	if c.rank != root {
		c.Send(root, tagGather, data)
		return nil
	}
	out := make([][]byte, n)
	out[root] = data
	for r := 0; r < n; r++ {
		if r != root {
			out[r] = c.Recv(r, tagGather)
		}
	}
	return out
}

// Allgather exchanges every rank's payload with every other rank using a
// ring pipeline (n-1 steps) and returns the payloads indexed by rank.
func (c *Comm) Allgather(data []byte) [][]byte {
	n := c.Size()
	out := make([][]byte, n)
	out[c.rank] = data
	if n == 1 {
		return out
	}
	t0 := c.tr.Now()
	next := (c.rank + 1) % n
	prev := (c.rank - 1 + n) % n
	blk := frameBlock(c.rank, data)
	for step := 0; step < n-1; step++ {
		recv := c.Sendrecv(next, blk, prev, tagAllgather)
		rank, payload := unframeBlock(recv)
		if out[rank] != nil {
			// A duplicate origin means the transport delivered the ring
			// stream out of order — catch it here, where the origin label
			// makes the diagnosis obvious, instead of failing later on an
			// empty slot.
			panic(fmt.Sprintf("comm: allgather rank %d step %d: duplicate block for rank %d", c.rank, step, rank))
		}
		out[rank] = payload
		blk = recv
	}
	c.tr.Collective(obs.KindAllgather, t0, len(data))
	return out
}

func frameBlock(rank int, data []byte) []byte {
	out := make([]byte, 4+len(data))
	binary.LittleEndian.PutUint32(out, uint32(rank))
	copy(out[4:], data)
	return out
}

func unframeBlock(b []byte) (int, []byte) {
	if len(b) < 4 {
		panic(fmt.Sprintf("comm: malformed allgather block of %d bytes", len(b)))
	}
	return int(binary.LittleEndian.Uint32(b)), b[4:]
}

func addF64s(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// F64sToBytes serializes a float64 slice little-endian. A nil slice
// serializes to nil.
func F64sToBytes(vals []float64) []byte {
	if vals == nil {
		return nil
	}
	return appendF64s(make([]byte, 0, 8*len(vals)), vals)
}

// appendF64s appends vals to dst in the F64sToBytes encoding.
func appendF64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// BytesToF64s deserializes a slice produced by F64sToBytes. It panics on
// lengths that are not a multiple of 8.
func BytesToF64s(b []byte) []float64 {
	if b == nil {
		return nil
	}
	if len(b)%8 != 0 {
		panic(fmt.Sprintf("comm: float payload of %d bytes", len(b)))
	}
	return decodeF64sInto(nil, b)
}

// decodeF64sInto deserializes b, whose length must be a multiple of 8,
// into dst[:len(b)/8], reusing dst's capacity when it suffices.
func decodeF64sInto(dst []float64, b []byte) []float64 {
	n := len(b) / 8
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}
