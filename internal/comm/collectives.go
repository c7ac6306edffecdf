package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/topo"
)

// Bcast distributes root's data to every rank of the communicator and
// returns it, down the binomial tree of topo.BinomialParent (⌈log₂ n⌉
// stages). Non-root ranks pass nil.
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.checkPeer(root)
	if c.Size() == 1 {
		return data
	}
	t0 := c.tr.Now()
	out := c.fanOut(root, TagBcast, data)
	c.tr.Collective(obs.KindBcast, t0, len(out))
	return out
}

// virtual returns the caller's virtual rank in the tree rooted at root.
func (c *Comm) virtual(root int) int { return (c.rank - root + c.Size()) % c.Size() }

// actual returns the communicator rank of virtual rank vr in the tree
// rooted at root.
func (c *Comm) actual(root, vr int) int { return (vr + root) % c.Size() }

// fanOut is the tree broadcast under Bcast and Barrier.
func (c *Comm) fanOut(root, tag int, data []byte) []byte {
	vr := c.virtual(root)
	if vr != 0 {
		data = c.Recv(c.actual(root, topo.BinomialParent(vr)), tag)
	}
	for k := topo.BinomialChildren(vr, c.Size()) - 1; k >= 0; k-- {
		c.Send(c.actual(root, vr+1<<k), tag, data)
	}
	return data
}

// fanInCombine is the tree reduction under ReduceF64s and Barrier:
// combine merges a child's payload into the accumulator and must be
// associative. The reduced payload is returned at the root; other ranks
// return nil.
func (c *Comm) fanInCombine(root, tag int, data []byte, combine func(acc, child []byte) []byte) []byte {
	vr := c.virtual(root)
	for k, kids := 0, topo.BinomialChildren(vr, c.Size()); k < kids; k++ {
		data = combine(data, c.Recv(c.actual(root, vr+1<<k), tag))
	}
	if vr != 0 {
		c.Send(c.actual(root, topo.BinomialParent(vr)), tag, data)
		return nil
	}
	return data
}

// ReduceF64s element-wise sums vals across all ranks up the binomial
// tree, leaving the result at root (other ranks get nil). All ranks must
// pass slices of equal length. The combination order is fixed by the
// communicator's size, so runs are bit-reproducible.
func (c *Comm) ReduceF64s(root int, vals []float64) []float64 {
	c.checkPeer(root)
	if c.Size() == 1 {
		return vals
	}
	t0 := c.tr.Now()
	out := c.fanInCombine(root, TagReduce, F64sToBytes(vals), func(acc, child []byte) []byte {
		a := BytesToF64s(acc)
		addF64s(a, BytesToF64s(child))
		return F64sToBytes(a)
	})
	c.tr.Collective(obs.KindReduce, t0, 8*len(vals))
	return BytesToF64s(out)
}

// AllreduceF64sEncoded is AllreduceF64s on the encoded path: the same
// exchanges or tree, the same combination order and the same wire
// bytes, each payload serialized and decoded into fresh memory, so it
// lends nothing.
func (c *Comm) AllreduceF64sEncoded(vals []float64) []float64 {
	n := c.Size()
	if n == 1 {
		return vals
	}
	if n&(n-1) != 0 {
		var total []byte
		if red := c.ReduceF64s(0, vals); c.rank == 0 {
			total = F64sToBytes(red)
		}
		return BytesToF64s(c.Bcast(0, total))
	}
	t0 := c.tr.Now()
	cur := vals
	for j := 1; j < n; j <<= 1 {
		partner := c.rank ^ j
		theirs := BytesToF64s(c.Sendrecv(partner, F64sToBytes(cur), partner, TagReduce))
		out := make([]float64, len(vals))
		if c.rank&j == 0 {
			sumF64s(out, cur, theirs)
		} else {
			sumF64s(out, theirs, cur)
		}
		cur = out
	}
	c.tr.Collective(obs.KindReduce, t0, 8*len(vals))
	return cur
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
