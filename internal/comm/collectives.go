package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/topo"
)

// virtual returns the caller's virtual rank in the tree rooted at root.
func (c *Comm) virtual(root int) int { return (c.rank - root + c.Size()) % c.Size() }

// actual returns the communicator rank of virtual rank vr in the tree
// rooted at root.
func (c *Comm) actual(root, vr int) int { return (vr + root) % c.Size() }

// fanOut is the tree broadcast under Barrier.
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

// fanInCombine is the tree reduction under Barrier: combine merges a
// child's payload into the accumulator and must be associative. The reduced payload is returned at the root; other ranks
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

func addF64s(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// appendF64s appends vals to dst little-endian, the wire encoding of
// a float64 payload.
func appendF64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
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
