package comm

// The payloads of the end-of-run exchange of a multi-process run (see
// joinDistributed): a follower's FINISH summary to proc 0 and proc 0's
// RESULT reply. Both are fixed little-endian layouts (cnet's protocol
// version 2), encoded behind the frame header into a buffer of their
// exact size (sendControl), with every map written in sorted key order
// so that a run always encodes to the same bytes:
//
//	FINISH: proc u32 | phases u32 | timeline_dropped i64 | frames i64 |
//	        flushes i64 | ranks u32 | ranks × stats | deposits |
//	        cells_len u32 | cells (appendCells)
//	RESULT: report | deposits
//
//	stats:    rank u32 | phases × phase | workers u32 | workers × ns i64
//	phase:    messages i64 | bytes i64 | recv_messages i64 | recv_bytes i64 | time_ns i64
//	report:   ranks u32 | phases u32 | phases × phase (critical path) |
//	          phases × phase (sum) | worker_max_ns i64 | worker_sum_ns i64 |
//	          worker_lanes u32 | s_lower_bound f64 | w_lower_bound f64 |
//	          timeline_dropped i64 | kernel_impl_len u32 | kernel_impl |
//	          socket_frames i64 | socket_flushes i64
//	deposits: slots u32 | slots × (slot u32 | n u32 | n × 52-byte particle)
//
// The decoders check a whole payload — every length and count against
// the bytes present, no trailing bytes, exactly numPhases phases, ranks
// and slots in range and strictly ascending — before the caller merges
// anything, and fail with an error, never a panic. Accepted input
// re-encodes to the same bytes. They decode into an exchangeScratch the
// world keeps from run to run, so a steady Run allocates none of it
// again.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"time"

	cnet "repro/internal/comm/net"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// numPhases is the phase count every stats block carries.
const numPhases = len(trace.Stats{}.ByPhase)

const phaseSize = 5 * 8

// rankStatsWire is one rank's trace accounting in transit.
type rankStatsWire struct {
	Rank          int
	ByPhase       [numPhases]trace.PhaseStats
	WorkerCompute []time.Duration
}

// procSummary is a follower's end-of-run report to proc 0: per-local-rank
// stats, the local deposits, the traffic cells of its ranks' tallies,
// timeline losses and the process's share of the socket counters.
type procSummary struct {
	Proc            int
	Stats           []rankStatsWire
	Deposits        map[int][]phys.Particle
	Cells           []obs.MatrixCell
	TimelineDropped int64
	Frames          int64
	Flushes         int64
}

// runResult is proc 0's reply: the merged report and final state,
// identical on every process.
type runResult struct {
	Report   *trace.Report
	Deposits map[int][]phys.Particle
}

// exchangeScratch is the storage one end-of-run payload is decoded into
// — or, on a follower, its own summary is built in. A decode reuses what
// the previous one left and overwrites what it returned.
type exchangeScratch struct {
	stats     []rankStatsWire // each entry's WorkerCompute too
	cells     []obs.MatrixCell
	deposits  map[int][]phys.Particle
	particles []phys.Particle // every deposit's, one slot after another
}

func (s *procSummary) size() int {
	n := 36 + depositsSize(s.Deposits) + 4 + cellsSize(s.Cells)
	for _, w := range s.Stats {
		n += 4 + numPhases*phaseSize + 4 + 8*len(w.WorkerCompute)
	}
	return n
}

func (s *procSummary) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Proc))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(numPhases))
	for _, v := range [...]int64{s.TimelineDropped, s.Frames, s.Flushes} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Stats)))
	for i := range s.Stats {
		w := &s.Stats[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(w.Rank))
		dst = appendPhases(dst, w.ByPhase[:])
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(w.WorkerCompute)))
		for _, d := range w.WorkerCompute {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(d))
		}
	}
	dst = appendDeposits(dst, s.Deposits)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cellsSize(s.Cells)))
	return appendCells(dst, s.Cells)
}

// decodeSummary decodes the FINISH payload of a follower of a mesh of
// procs processes hosting ranksPerProc ranks each into sc: it must name
// a follower and list exactly that follower's ranks, in order.
func decodeSummary(b []byte, procs, ranksPerProc int, sc *exchangeScratch) (procSummary, error) {
	c := cnet.NewCursor(b)
	var s procSummary
	s.Proc = int(c.U32("proc"))
	readPhaseCount(c)
	s.TimelineDropped, s.Frames, s.Flushes = c.I64("timeline drops"), c.I64("frames"), c.I64("flushes")
	lo := s.Proc * ranksPerProc
	if c.Err() == nil && (s.Proc < 1 || s.Proc >= procs) {
		c.Fail("proc %d is not a follower of %d procs", s.Proc, procs)
	}
	switch n := c.Count(4+numPhases*phaseSize+4, "rank count"); {
	case c.Err() != nil:
	case n != ranksPerProc:
		c.Fail("stats of %d ranks, want proc %d's %d", n, s.Proc, ranksPerProc)
	default:
		sc.stats = slices.Grow(sc.stats[:0], n)[:n]
		s.Stats = sc.stats
	}
	for i := range s.Stats {
		w := &s.Stats[i]
		w.Rank = int(c.U32("rank"))
		if c.Err() == nil && w.Rank != lo+i {
			c.Fail("stats entry %d is rank %d, want rank %d (each of ranks [%d,%d) once, in order)", i, w.Rank, lo+i, lo, lo+ranksPerProc)
		}
		readPhases(c, w.ByPhase[:])
		n := c.Count(8, "worker count")
		w.WorkerCompute = slices.Grow(w.WorkerCompute[:0], n)[:n]
		for k := range w.WorkerCompute {
			w.WorkerCompute[k] = time.Duration(c.I64("worker time"))
		}
	}
	s.Deposits = readDeposits(c, procs*ranksPerProc, sc)
	block := c.Bytes(int(c.U32("cell block length")), "cell block")
	if err := c.Finish(); err != nil {
		return procSummary{}, err
	}
	var err error
	if sc.cells, err = decodeCells(sc.cells, block, numPhases, procs*ranksPerProc); err != nil {
		return procSummary{}, err
	}
	s.Cells = sc.cells
	return s, nil
}

func (r *runResult) size() int {
	return 8 + 2*numPhases*phaseSize + 8 + 8 + 4 + 8 + 8 + 8 + 4 + len(r.Report.KernelImpl) + 8 + 8 + depositsSize(r.Deposits)
}

func (r *runResult) appendTo(dst []byte) []byte {
	rep := r.Report
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rep.Ranks))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(numPhases))
	dst = appendPhases(dst, rep.CriticalPath[:])
	dst = appendPhases(dst, rep.Sum[:])
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rep.WorkerMax))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rep.WorkerSum))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rep.WorkerLanes))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rep.SLowerBound))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rep.WLowerBound))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rep.TimelineDropped))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rep.KernelImpl)))
	dst = append(dst, rep.KernelImpl...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rep.SocketFrames))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rep.SocketFlushes))
	return appendDeposits(dst, r.Deposits)
}

// decodeResult decodes the RESULT payload of a run of size ranks, its
// deposits into sc.
func decodeResult(b []byte, size int, sc *exchangeScratch) (runResult, error) {
	c := cnet.NewCursor(b)
	rep := &trace.Report{Ranks: int(c.U32("report ranks"))}
	if c.Err() == nil && rep.Ranks != size {
		c.Fail("report of %d ranks, want %d", rep.Ranks, size)
	}
	readPhaseCount(c)
	readPhases(c, rep.CriticalPath[:])
	readPhases(c, rep.Sum[:])
	rep.WorkerMax, rep.WorkerSum = time.Duration(c.I64("worker max")), time.Duration(c.I64("worker sum"))
	rep.WorkerLanes = int(c.U32("worker lanes"))
	rep.SLowerBound = math.Float64frombits(c.U64("S lower bound"))
	rep.WLowerBound = math.Float64frombits(c.U64("W lower bound"))
	rep.TimelineDropped = c.I64("timeline drops")
	rep.KernelImpl = string(c.Bytes(int(c.U32("kernel name length")), "kernel name"))
	rep.SocketFrames, rep.SocketFlushes = c.I64("socket frames"), c.I64("socket flushes")
	deps := readDeposits(c, size, sc)
	if err := c.Finish(); err != nil {
		return runResult{}, err
	}
	return runResult{Report: rep, Deposits: deps}, nil
}

func readPhaseCount(c *cnet.Cursor) {
	if n := c.U32("phase count"); n != uint32(numPhases) && c.Err() == nil {
		c.Fail("%d phases, want %d", n, numPhases)
	}
}

func appendPhases(dst []byte, ps []trace.PhaseStats) []byte {
	for _, p := range ps {
		for _, v := range [...]int64{p.Messages, p.Bytes, p.RecvMessages, p.RecvBytes, int64(p.Time)} {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	}
	return dst
}

func readPhases(c *cnet.Cursor, ps []trace.PhaseStats) {
	for i := range ps {
		p := &ps[i]
		p.Messages, p.Bytes = c.I64("messages"), c.I64("bytes")
		p.RecvMessages, p.RecvBytes = c.I64("received messages"), c.I64("received bytes")
		p.Time = time.Duration(c.I64("phase time"))
	}
}

func depositsSize(deps map[int][]phys.Particle) int {
	n := 4
	for _, ps := range deps {
		n += 8 + phys.WireBytes(len(ps))
	}
	return n
}

func appendDeposits(dst []byte, deps map[int][]phys.Particle) []byte {
	slots := make([]int, 0, len(deps))
	for slot := range deps {
		slots = append(slots, slot)
	}
	slices.Sort(slots)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(slots)))
	for _, slot := range slots {
		ps := deps[slot]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(slot))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ps)))
		dst = phys.AppendSlice(dst, ps)
	}
	return dst
}

// readDeposits decodes a deposits block of a world of size ranks, whose
// slots are in [0, size), into sc's map. The particles are decoded
// straight out of the payload into sc.particles, a slot's slice capped
// at its end.
func readDeposits(c *cnet.Cursor, size int, sc *exchangeScratch) map[int][]phys.Particle {
	n := c.Count(8, "deposit count")
	if n == 0 {
		return nil
	}
	if sc.deposits == nil {
		sc.deposits = make(map[int][]phys.Particle, n)
	}
	deps := sc.deposits
	clear(deps)
	// What is left of the payload bounds the particles: one allocation
	// covers every slot.
	ps := slices.Grow(sc.particles[:0], c.Len()/phys.WireSize)
	prev := -1
	for i := 0; i < n && c.Err() == nil; i++ {
		slot := int(c.U32("deposit slot"))
		b := c.Bytes(phys.WireSize*c.Count(phys.WireSize, "deposit particle count"), "deposit particles")
		if c.Err() != nil {
			break
		}
		if slot <= prev || slot >= size {
			c.Fail("deposit slot %d after %d: slots must ascend within [0, %d)", slot, prev, size)
			break
		}
		prev = slot
		start := len(ps)
		ps, _ = phys.DecodeSliceInto(ps, b)
		deps[slot] = ps[start:len(ps):len(ps)]
	}
	sc.particles = ps
	return deps
}

// cellsSize is the length of appendCells' encoding of cells.
func cellsSize(cells []obs.MatrixCell) int {
	n := uvarintLen(uint64(len(cells)))
	for _, c := range cells {
		for _, v := range [...]int64{int64(c.Phase), int64(c.Src), int64(c.Dst), c.SentMsgs, c.SentBytes, c.RecvMsgs, c.RecvBytes} {
			n += uvarintLen(uint64(v))
		}
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
