package comm

// A rank's traffic counts: a sparse tally of the (phase, src, dst)
// cells the rank has used, counted with plain adds. They reach an
// observer one way, publish (at each step's end and when the rank's
// function returns); a follower's reach proc 0 as the cell list of its
// end-of-run summary. A rank of a timestep loop uses a handful of
// cells, so nothing is allocated or cleared that the run does not
// touch, nothing is shared between ranks per message, and the summary
// carries no zeros.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/owner"
	"repro/internal/trace"
)

// tally is one rank's traffic counts: the cells whose src it is carry
// its sends, the cells whose dst it is its receives. Only the rank's
// own goroutine counts into it or publishes it (checked under
// obsdebug), so counting is a plain add.
type tally struct {
	cells []obs.MatrixCell
	// index locates a cell once there are too many for a scan; nil until
	// then. A rank of a timestep loop talks to a handful of peers in a
	// few phases and never builds it.
	index map[cellKey]int
	guard owner.Guard
}

type cellKey struct{ phase, src, dst int }

// send counts one src→dst message of the given bytes under the
// sender's phase.
func (t *tally) send(phase, src, dst, bytes int) {
	c := t.at(phase, src, dst)
	c.SentMsgs++
	c.SentBytes += int64(bytes)
}

// recv counts the receipt of one src→dst message under the receiver's
// phase.
func (t *tally) recv(phase, src, dst, bytes int) {
	c := t.at(phase, src, dst)
	c.RecvMsgs++
	c.RecvBytes += int64(bytes)
}

// publish hands the counts to p, charges compute to rank's compute time
// and zeroes the counts, keeping the cells for the steps to come. With
// p nil — a follower process, whose counts reach proc 0 in its summary —
// the tally keeps accumulating.
func (t *tally) publish(p *publisher, rank int, compute time.Duration) {
	t.guard.Check("comm.tally")
	if p == nil {
		return
	}
	p.publish(t.cells)
	p.matrix.AddTime(rank, int(trace.Compute), compute)
	for i := range t.cells {
		c := &t.cells[i]
		c.SentMsgs, c.SentBytes, c.RecvMsgs, c.RecvBytes = 0, 0, 0, 0
	}
}

// publisher is where an observed world's counts go: the communication
// matrix and the four traffic counters, which publish alone writes.
type publisher struct {
	matrix                                   *obs.CommMatrix
	sentMsgs, sentBytes, recvMsgs, recvBytes *obs.Counter
}

func newPublisher(o *obs.Observer, ranks int) *publisher {
	reg := o.Metrics
	return &publisher{
		matrix:    o.EnsureMatrix(len(trace.PhaseNames()), ranks),
		sentMsgs:  reg.Counter("comm.sent.msgs"),
		sentBytes: reg.Counter("comm.sent.bytes"),
		recvMsgs:  reg.Counter("comm.recv.msgs"),
		recvBytes: reg.Counter("comm.recv.bytes"),
	}
}

// publish adds cells to the matrix and their summed counts to the
// traffic counters.
func (p *publisher) publish(cells []obs.MatrixCell) {
	p.matrix.AddCells(cells)
	var tot obs.MatrixCell
	for _, c := range cells {
		tot.SentMsgs += c.SentMsgs
		tot.SentBytes += c.SentBytes
		tot.RecvMsgs += c.RecvMsgs
		tot.RecvBytes += c.RecvBytes
	}
	p.sentMsgs.Add(tot.SentMsgs)
	p.sentBytes.Add(tot.SentBytes)
	p.recvMsgs.Add(tot.RecvMsgs)
	p.recvBytes.Add(tot.RecvBytes)
}

// tallyScan is the cell count up to which finding a cell by linear scan
// beats a map lookup.
const tallyScan = 16

// at returns the rank's cell for (phase, src, dst), adding it on first
// use.
func (t *tally) at(phase, src, dst int) *obs.MatrixCell {
	t.guard.Check("comm.tally")
	if t.index != nil {
		if i, ok := t.index[cellKey{phase, src, dst}]; ok {
			return &t.cells[i]
		}
	} else {
		for i := range t.cells {
			if c := &t.cells[i]; c.Dst == dst && c.Src == src && c.Phase == phase {
				return c
			}
		}
		if len(t.cells) == tallyScan {
			t.index = make(map[cellKey]int, 2*tallyScan)
			for i, c := range t.cells {
				t.index[cellKey{c.Phase, c.Src, c.Dst}] = i
			}
		}
	}
	if t.index != nil {
		t.index[cellKey{phase, src, dst}] = len(t.cells)
	}
	t.cells = append(t.cells, obs.MatrixCell{Phase: phase, Src: src, Dst: dst})
	return &t.cells[len(t.cells)-1]
}

// reset empties the tally for the next run, keeping its storage, and
// frees it for that run's rank goroutine.
func (t *tally) reset() {
	t.cells = t.cells[:0]
	clear(t.index)
	t.guard.Release()
}

// compareCells orders cells by (phase, src, dst) — the order of the
// dense matrix's storage and of the summary's cell list.
func compareCells(a, b obs.MatrixCell) int {
	if a.Phase != b.Phase {
		return a.Phase - b.Phase
	}
	if a.Src != b.Src {
		return a.Src - b.Src
	}
	return a.Dst - b.Dst
}

// mergeTallies flattens per-rank tallies into one list in summary
// order, in dst's storage. A pair with both ends in this process
// appears in two tallies — the sender's holds its sent counts, the
// receiver's its received ones — and comes out as one cell.
func mergeTallies(dst []obs.MatrixCell, tallies []tally) []obs.MatrixCell {
	all := dst[:0]
	for i := range tallies {
		all = append(all, tallies[i].cells...)
	}
	slices.SortFunc(all, compareCells)
	out := all[:0]
	for _, c := range all {
		if n := len(out); n > 0 && compareCells(out[n-1], c) == 0 {
			last := &out[n-1]
			last.SentMsgs += c.SentMsgs
			last.SentBytes += c.SentBytes
			last.RecvMsgs += c.RecvMsgs
			last.RecvBytes += c.RecvBytes
			continue
		}
		out = append(out, c)
	}
	return out
}

// appendCells appends the summary encoding of cells, which must be in
// summary order: a uvarint count, then per cell seven uvarints — phase,
// src, dst, sent messages, sent bytes, received messages, received
// bytes.
func appendCells(dst []byte, cells []obs.MatrixCell) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	for _, c := range cells {
		for _, v := range [...]int64{int64(c.Phase), int64(c.Src), int64(c.Dst), c.SentMsgs, c.SentBytes, c.RecvMsgs, c.RecvBytes} {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	return dst
}

var errCells = errors.New("comm: corrupt summary cells")

// decodeCells decodes an appendCells block for a phases×ranks×ranks
// matrix into dst's storage. The block comes off the wire, so
// everything in it is checked — truncation, trailing bytes, a uvarint
// not in its shortest form (so that a block has one encoding), counts
// past int64, a phase or rank out of range, cells out of order or
// repeated (strictly ascending order is what makes a duplicate
// detectable without a set) — and reported as an error, never a panic;
// the allocation is bounded by the block's own length, not by the count
// it claims.
func decodeCells(dst []obs.MatrixCell, b []byte, phases, ranks int) ([]obs.MatrixCell, error) {
	next := func(limit int64, what string) (int64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated %s", errCells, what)
		}
		if n > 1 && b[n-1] == 0 {
			return 0, fmt.Errorf("%w: %s %d not minimally encoded", errCells, what, v)
		}
		if v > uint64(max(limit, 0)) {
			return 0, fmt.Errorf("%w: %s %d out of range", errCells, what, v)
		}
		b = b[n:]
		return int64(v), nil
	}
	count, err := next(int64(len(b)/7), "cell count") // a cell is at least seven bytes
	if err != nil {
		return nil, err
	}
	fields := [7]struct {
		limit int64
		what  string
	}{
		{int64(phases - 1), "phase"}, {int64(ranks - 1), "src rank"}, {int64(ranks - 1), "dst rank"},
		{math.MaxInt64, "sent messages"}, {math.MaxInt64, "sent bytes"},
		{math.MaxInt64, "received messages"}, {math.MaxInt64, "received bytes"},
	}
	cells := slices.Grow(dst[:0], int(count))[:count]
	for i := range cells {
		var v [7]int64
		for k, f := range fields {
			if v[k], err = next(f.limit, f.what); err != nil {
				return nil, err
			}
		}
		cells[i] = obs.MatrixCell{Phase: int(v[0]), Src: int(v[1]), Dst: int(v[2]),
			SentMsgs: v[3], SentBytes: v[4], RecvMsgs: v[5], RecvBytes: v[6]}
		if i > 0 && compareCells(cells[i-1], cells[i]) >= 0 {
			return nil, fmt.Errorf("%w: cell (phase %d, %d→%d) repeated or out of order", errCells, v[0], v[1], v[2])
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCells, len(b))
	}
	return cells, nil
}
