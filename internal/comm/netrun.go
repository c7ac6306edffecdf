package comm

// Multi-process execution: a Proc is one OS process's membership in a
// socket mesh (internal/comm/net) carrying a share of the world's
// ranks. A world bound to a Proc (NewRuntime) spans each of its runs
// over every process — local ranks run as goroutines exactly as in
// process, and messages whose destination lives elsewhere are encoded
// into the 52-byte particle wire format (or the packed float64 format)
// and framed over the mesh.
//
// Buffers on the socket path. A remote send encodes header and payload
// straight into the destination link's filling write buffer
// (Mesh.SendPayload) before it returns, so nothing on the wire side
// ever references the sender's slice. An arriving payload is
// only lent by the link's decoder: typed payloads are decoded out of the
// read buffer into a slice from the destination rank's spares, byte
// payloads are copied. The receiver owns the decoded slice outright,
// like any received payload; message.offWire records that nothing else
// can reference it, which lets the two collectives of the timestep loops
// that copy out of a received slice and drop it — a BcastParticles leaf
// and every ReduceF64sInPlace parent — put it back in the spares. Steady
// state, a remote message allocates nothing on either side.
//
// Accounting fidelity: the socket path charges exactly the bytes the
// in-process transport charges. Typed payloads are encoded with the
// same codec whose size the typed path accounts (phys.WireBytes,
// 8 bytes per float64, the 4-byte team frame), and the receiving side
// reconstructs message.wire from the payload length by the same
// formulas — so trace reports, the comm matrix, and flight recordings
// are transport-invariant, which the property tests in internal/core
// pin bitwise.

import (
	"bytes"
	"fmt"
	"sync"

	cnet "repro/internal/comm/net"
	"repro/internal/phys"
	"repro/internal/trace"
)

// Proc is one OS process's handle on a multi-process rank group. A
// Proc hosts a contiguous block of ranksPerProc world ranks:
// proc i owns ranks [i*ranksPerProc, (i+1)*ranksPerProc). The handle
// survives multiple runs (the end-of-run result exchange is a
// natural barrier between them); an abort severs it permanently.
type Proc struct {
	mesh         *cnet.Mesh
	ranksPerProc int
	// flushed is the mesh's write count when the last run ended, the
	// base of the next run's share.
	flushed int64
}

// JoinProcs forms (or joins) a mesh of procs processes at the
// rendezvous address, each hosting ranksPerProc ranks. The process
// that binds the address becomes proc 0; the others learn their ids
// from it. Every process of one run must use the same arguments.
func JoinProcs(rendezvous string, procs, ranksPerProc int) (*Proc, error) {
	if ranksPerProc < 1 {
		return nil, fmt.Errorf("comm: non-positive ranks per proc %d", ranksPerProc)
	}
	mesh, err := cnet.Join(cnet.Config{Rendezvous: rendezvous, Procs: procs})
	if err != nil {
		return nil, err
	}
	return &Proc{mesh: mesh, ranksPerProc: ranksPerProc}, nil
}

// ProcListener is a bound-but-unformed rendezvous: a launcher binds
// (possibly port 0), reads Addr to tell the follower processes where
// to join, then Accepts to complete the mesh as proc 0.
type ProcListener struct {
	r            *cnet.Rendezvous
	ranksPerProc int
}

// ListenProcs binds the rendezvous address without waiting for peers.
func ListenProcs(rendezvous string, procs, ranksPerProc int) (*ProcListener, error) {
	if ranksPerProc < 1 {
		return nil, fmt.Errorf("comm: non-positive ranks per proc %d", ranksPerProc)
	}
	r, err := cnet.Listen(cnet.Config{Rendezvous: rendezvous, Procs: procs})
	if err != nil {
		return nil, err
	}
	return &ProcListener{r: r, ranksPerProc: ranksPerProc}, nil
}

// Addr returns the bound rendezvous address in the form JoinProcs
// accepts.
func (l *ProcListener) Addr() string { return l.r.Addr() }

// Accept waits for every peer process and completes the mesh; the
// caller becomes proc 0.
func (l *ProcListener) Accept() (*Proc, error) {
	mesh, err := l.r.Accept()
	if err != nil {
		return nil, err
	}
	return &Proc{mesh: mesh, ranksPerProc: l.ranksPerProc}, nil
}

// Close abandons an un-Accepted rendezvous.
func (l *ProcListener) Close() error { return l.r.Close() }

// ID returns this process's proc id; proc 0 coordinates result
// merging and is where the merged comm matrix and recordings live.
func (p *Proc) ID() int { return p.mesh.ID() }

// NumProcs returns the number of OS processes in the mesh.
func (p *Proc) NumProcs() int { return p.mesh.Procs() }

// RanksPerProc returns the number of world ranks each process hosts.
func (p *Proc) RanksPerProc() int { return p.ranksPerProc }

// WorldSize returns the total rank count across all processes.
func (p *Proc) WorldSize() int { return p.mesh.Procs() * p.ranksPerProc }

// Transport names the wire transport: "tcp" or "unix".
func (p *Proc) Transport() string { return p.mesh.Network() }

// Err returns the mesh's abort error, nil while healthy.
func (p *Proc) Err() error { return p.mesh.Err() }

// Close shuts the mesh down in an orderly way (flushing queued
// frames). Call once per process, after the last run.
func (p *Proc) Close() error { return p.mesh.Close() }

// procOf maps a world rank to the proc hosting it.
func (p *Proc) procOf(rank int) int { return rank / p.ranksPerProc }

// queueDepthTo reports the frames waiting for the link writer toward a
// rank's process — the socket analogue of destination-mailbox occupancy.
func (p *Proc) queueDepthTo(rank int) int { return p.mesh.QueueDepth(p.procOf(rank)) }

// --- runtime binding -------------------------------------------------

// remote reports whether a world rank lives in another OS process.
func (rt *Runtime) remote(rank int) bool {
	return rt.proc != nil && (rank < rt.lo || rank >= rt.hi)
}

// transportName names the transport for panic diagnostics.
func (rt *Runtime) transportName() string {
	if rt.proc == nil {
		return "in-process"
	}
	return rt.proc.Transport()
}

// bindProc places a world on the mesh: its local ranks are [lo, hi),
// and its socket side is set up for the runs to come.
func (rt *Runtime) bindProc(p *Proc) error {
	if err := p.mesh.Err(); err != nil {
		return fmt.Errorf("comm: mesh unusable: %w", err)
	}
	if p.WorldSize() != rt.size {
		return fmt.Errorf("comm: world size %d but mesh spans %d procs × %d ranks = %d",
			rt.size, p.NumProcs(), p.ranksPerProc, p.WorldSize())
	}
	rt.proc = p
	rt.lo = p.ID() * p.ranksPerProc
	rt.hi = rt.lo + p.ranksPerProc
	rt.wire = &wireState{
		spares:   make([]spares, p.ranksPerProc),
		out:      make([]outgoing, p.ranksPerProc),
		arrivals: make([][][]arrival, p.NumProcs()),
		exchange: make([]exchangeScratch, p.NumProcs()),
	}
	return nil
}

// wireState is what a world keeps for its socket side.
type wireState struct {
	// spares holds, by local rank, the typed slices decoded off the wire
	// that the rank has finished with, for the readers to decode into.
	spares []spares
	// out holds, by local rank, the remote send in progress.
	out []outgoing
	// arrivals caches, per peer process and local destination rank, the
	// links that process's reader goroutine delivers on.
	arrivals [][][]arrival
	// arrived counts the data frames delivered to the current run; like
	// arrivals it is guarded by the mesh's routing lock.
	arrived int64
	// exchange is the end-of-run exchange's storage: a follower builds
	// its summary and decodes the result in its entry 0, proc 0 decodes
	// the i-th summary to arrive in entry i. What a run keeps from it —
	// remote deposits, remote worker times — is valid until the next run.
	exchange []exchangeScratch
}

// attach connects the world to the mesh for one run: incoming data
// frames inject into the local mailboxes, and a mesh abort releases
// every local rank.
func (rt *Runtime) attach() error {
	if err := rt.proc.mesh.Err(); err != nil {
		return fmt.Errorf("comm: mesh unusable: %w", err)
	}
	rt.proc.mesh.OnAbort(rt.failLocal)
	rt.proc.mesh.Attach(rt.inject)
	return nil
}

// detach disconnects the world after a run; later frames wait in the
// mesh for the next run's attach.
func (rt *Runtime) detach() {
	rt.proc.mesh.Detach()
	rt.proc.mesh.OnAbort(nil)
}

// --- frame conversion ------------------------------------------------

// outgoing is a local rank's remote send in progress: the message whose
// payload the destination link appends to its write buffer. It lives in
// the world's wire state, not on the sender's stack, because the link
// calls it through an interface.
type outgoing struct{ m message }

// AppendPayload encodes the message's payload with the exact codec
// whose size the typed transport charges, so both sides of the socket
// account identically.
func (o *outgoing) AppendPayload(dst []byte) []byte {
	switch m := &o.m; m.kind {
	case payloadBytes:
		return append(dst, payload[byte](m)...)
	case payloadParticles, payloadTeamParticles:
		return phys.AppendSlice(dst, payload[phys.Particle](m))
	default: // payloadF64s, the last kind
		return appendF64s(dst, payload[float64](m))
	}
}

// spares is one local rank's stock of typed slices that were decoded off
// the wire and that the rank has finished with. The link readers take
// from it to decode the rank's next arrivals into; the rank puts back
// (see Comm.recycle).
type spares struct {
	ps   stock[phys.Particle]
	f64s stock[float64]
}

// stock is a bounded free list of slices. Both ends hold it briefly and
// rarely meet, hence a plain mutex.
type stock[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// stockKeep bounds a stock; a rank of a timestep loop has one or two
// slices of each type in circulation.
const stockKeep = 8

// take returns an empty slice with whatever capacity the stock has to
// offer, nil when it has none.
func (s *stock[T]) take() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		v := s.free[n-1]
		s.free = s.free[:n-1]
		return v
	}
	return nil
}

func (s *stock[T]) put(v []T) {
	s.mu.Lock()
	if len(s.free) < stockKeep {
		s.free = append(s.free, v[:0])
	}
	s.mu.Unlock()
}

// recycle returns the typed payload of a received message to the rank's
// spares if this process decoded it off the wire. The caller must be
// done with the slice and must not have passed it on.
func (c *Comm) recycle(m *message) {
	if !m.offWire {
		return
	}
	sp := &c.rt.wire.spares[c.group[c.rank]-c.rt.lo]
	switch m.kind {
	case payloadParticles, payloadTeamParticles:
		sp.ps.put(payload[phys.Particle](m))
	case payloadF64s:
		sp.f64s.put(payload[float64](m))
	}
}

// msgFromFrame decodes a wire frame addressed to local rank dst back
// into a message, whose wire() then prices the payload length by the
// same formulas as on the sending side. The frame's payload is only lent
// (cnet.Decoder), so nothing of it is retained.
func (rt *Runtime) msgFromFrame(f cnet.Frame, src, dst int) (message, error) {
	m := message{comm: f.Comm, tag: int(f.Tag), kind: payloadKind(f.Kind), seq: f.Seq, hdr: f.Hdr}
	sp := &rt.wire.spares[dst-rt.lo]
	switch m.kind {
	case payloadBytes:
		m = withPayload(m, bytes.Clone(f.Payload))
	case payloadParticles, payloadTeamParticles:
		if len(f.Payload) > 0 {
			ps, err := phys.DecodeSliceInto(sp.ps.take(), f.Payload)
			if err != nil {
				return m, fmt.Errorf("comm: frame from rank %d: %w", src, err)
			}
			m = withPayload(m, ps)
			m.offWire = true
		}
	case payloadF64s:
		if len(f.Payload)%8 != 0 {
			return m, fmt.Errorf("comm: frame from rank %d: float64 payload of %d bytes", src, len(f.Payload))
		}
		if len(f.Payload) > 0 {
			into := sp.f64s.take()
			if into == nil {
				// An AllreduceF64s partner may run a step ahead, so the
				// rank can be sent its next payload before it recycles
				// this one: the stock gets the second slice with the first.
				pair := make([]float64, len(f.Payload)/4)
				into = pair[: 0 : len(pair)/2]
				sp.f64s.put(pair[len(pair)/2:])
			}
			m = withPayload(m, decodeF64sInto(into, f.Payload))
			m.offWire = true
		}
	default:
		return m, fmt.Errorf("comm: frame from rank %d: unknown payload kind %d", src, f.Kind)
	}
	return m, nil
}

// arrival is one entry of a link reader's cache: the stream of frames
// from world rank src to the local rank the entry is filed under.
type arrival struct {
	src int
	l   *link
}

// arrivalLink returns the src→dst stream for a frame that came in on the
// link from process `from`. Each (src, dst) pair arrives on exactly one
// connection, and the mesh delivers a connection's frames one at a time,
// so the reader keeps the links it has resolved in a table nobody else
// touches, as Comm.peers does for a local sender: a frame costs an index
// and a scan of the one to three sources that reach dst over this link,
// and only a pair's first frame takes the destination inbox's lock
// (rt.link — which keeps link creation exactly-once against the
// receiving rank naming the pair at the same moment).
func (rt *Runtime) arrivalLink(from, src, dst int) *link {
	byDst := &rt.wire.arrivals[from]
	if *byDst == nil {
		*byDst = make([][]arrival, rt.hi-rt.lo)
	}
	known := &(*byDst)[dst-rt.lo]
	for _, a := range *known {
		if a.src == src {
			return a.l
		}
	}
	l := rt.link(src, dst)
	*known = append(*known, arrival{src, l})
	return l
}

// inject delivers one incoming data frame into the destination
// mailbox. It runs on the mesh's per-connection reader goroutines and
// must never block: a full mailbox defers to a chained goroutine (the
// link's deferred delivery, see deferDelivery), so one slow pair cannot
// head-of-line block the connection, and the pair's frames keep their
// order. Each (src, dst) pair arrives on exactly one connection, so the
// link's feeding state is accessed by one goroutine at a time, and its
// stream has one producer.
func (rt *Runtime) inject(from int, f cnet.Frame) {
	src, dst := int(f.Src), int(f.Dst)
	if src < 0 || src >= rt.size || rt.proc.procOf(src) != from || dst < rt.lo || dst >= rt.hi {
		rt.fail(-1, fmt.Errorf("comm: frame addressed %d→%d on the link from proc %d, outside this process (local ranks [%d,%d))", src, dst, from, rt.lo, rt.hi))
		return
	}
	m, err := rt.msgFromFrame(f, src, dst)
	if err != nil {
		rt.fail(-1, err)
		return
	}
	rt.wire.arrived++
	l := rt.arrivalLink(from, src, dst)
	if !l.deferredPending() && l.s.tryPut(&m) {
		return
	}
	// Only a deferred delivery copies the message to the heap.
	held := m
	rt.deferDelivery(l, func(abort <-chan struct{}) {
		l.s.put(&held, abort)
	})
}

// netSend is the blocking remote delivery under sendMsg: encode the
// frame into the destination proc's link (blocking while the link's
// backlog is full, unwinding on abort).
func (rt *Runtime) netSend(src, dst int, m *message) {
	o := &rt.wire.out[src-rt.lo]
	o.m = *m
	err := rt.proc.mesh.SendPayload(rt.proc.procOf(dst), &cnet.Frame{
		Kind: uint8(m.kind),
		Src:  uint32(src), Dst: uint32(dst),
		Comm: m.comm, Tag: int64(m.tag), Seq: m.seq, Hdr: m.hdr,
	}, o, rt.abort)
	o.m = message{} // keeps no reference to the sender's slice
	if err != nil {
		rt.failLocal(err)
		panic(errAborted{})
	}
}

// --- final state deposits -------------------------------------------

// Deposit publishes a rank's slice of the final particle state under a
// globally unique slot index in [0, world size) (team id, rank id —
// whatever the algorithm partitions output by). Deposits from every process are
// merged and broadcast at the end of a distributed run, so Run
// returns the complete final state on every process; in process they
// are simply collected. The slice is retained by
// reference — the usual hand-off contract applies.
func (c *Comm) Deposit(slot int, ps []phys.Particle) {
	rt := c.rt
	rt.mu.Lock()
	if rt.deposits == nil {
		rt.deposits = make(map[int][]phys.Particle)
	}
	rt.deposits[slot] = ps
	rt.mu.Unlock()
}

// --- end-of-run result exchange -------------------------------------

// sendControl encodes an end-of-run control frame (exchange.go)
// straight into the link toward proc `to`.
func (p *Proc) sendControl(to int, kind uint8, pl cnet.Payload) error {
	return p.mesh.SendPayload(to, &cnet.Frame{Kind: kind, Src: uint32(p.ID())}, pl, nil)
}

// joinDistributed completes a distributed run after the local ranks
// finish: followers send their summary to proc 0 and adopt its merged
// result; proc 0 merges every summary into its stats, matrix and
// deposits, aggregates the report, and broadcasts it. On an aborted
// run the exchange is skipped — the mesh is already severed and every
// process returns the failure.
func (rt *Runtime) joinDistributed(opts Options) (*trace.Report, map[int][]phys.Particle, error) {
	mesh := rt.proc.mesh
	rt.mu.Lock()
	err := rt.err
	rt.mu.Unlock()
	if err != nil {
		mesh.Abort(err) // idempotent; ensures peers unwind too
		return rt.Report(), nil, err
	}
	if err := mesh.Err(); err != nil {
		return rt.Report(), nil, err
	}
	if rt.proc.ID() != 0 {
		return rt.followerJoin(opts)
	}
	return rt.leaderJoin(opts)
}

func (rt *Runtime) followerJoin(opts Options) (*trace.Report, map[int][]phys.Particle, error) {
	mesh := rt.proc.mesh
	sum := rt.localSummary(opts)
	if err := rt.proc.sendControl(0, cnet.KindFinish, &sum); err != nil {
		return nil, nil, err
	}
	var res runResult
	err := mesh.RecvCtrl(func(f cnet.Frame) (err error) {
		if f.Kind != cnet.KindResult {
			return fmt.Errorf("comm: proc %d expected a result frame, got kind %#x", rt.proc.ID(), f.Kind)
		}
		if res, err = decodeResult(f.Payload, rt.size, &rt.wire.exchange[0]); err != nil {
			return fmt.Errorf("comm: result from proc 0: %w", err)
		}
		return nil
	})
	if err != nil {
		mesh.Abort(err) // a no-op if the mesh failed first
		return nil, nil, err
	}
	return res.Report, res.Deposits, nil
}

func (rt *Runtime) leaderJoin(opts Options) (*trace.Report, map[int][]phys.Particle, error) {
	mesh := rt.proc.mesh
	frames, flushes := rt.socketShare(opts) // before the exchange adds its control frames
	var remoteDropped int64
	reported := make([]bool, rt.proc.NumProcs())
	for i := 1; i < rt.proc.NumProcs(); i++ {
		var sum procSummary
		err := mesh.RecvCtrl(func(f cnet.Frame) (err error) {
			if f.Kind != cnet.KindFinish {
				return fmt.Errorf("comm: proc 0 expected a finish frame, got kind %#x", f.Kind)
			}
			sum, err = rt.mergeSummary(f, reported, &rt.wire.exchange[i])
			return err
		})
		if err != nil {
			mesh.Abort(err) // a no-op if the mesh failed first
			return rt.Report(), nil, err
		}
		remoteDropped += sum.TimelineDropped
		frames += sum.Frames
		flushes += sum.Flushes
	}
	rep := rt.Report()
	rep.SocketFrames, rep.SocketFlushes = frames, flushes
	if o := opts.Observe; o != nil {
		dropped := o.Timeline.Dropped() + remoteDropped
		rep.TimelineDropped = dropped
		o.Metrics.Gauge("timeline.dropped").Set(dropped)
	}
	rt.mu.Lock()
	res := runResult{Report: rep, Deposits: rt.deposits}
	rt.mu.Unlock()
	for i := 1; i < rt.proc.NumProcs(); i++ {
		if err := rt.proc.sendControl(i, cnet.KindResult, &res); err != nil {
			return rep, nil, err
		}
	}
	return rep, res.Deposits, nil
}

// localSummary snapshots this process's share of the run for proc 0,
// in the world's exchange storage. It refers to the ranks' worker times
// and deposits, which nothing touches until the next run.
func (rt *Runtime) localSummary(opts Options) procSummary {
	sc := &rt.wire.exchange[0]
	sc.cells = mergeTallies(sc.cells, rt.tallies)
	sum := procSummary{Proc: rt.proc.ID(), Cells: sc.cells}
	sum.Frames, sum.Flushes = rt.socketShare(opts)
	sc.stats = sc.stats[:0]
	for r := rt.lo; r < rt.hi; r++ {
		st := rt.stats[r]
		sc.stats = append(sc.stats, rankStatsWire{Rank: r, ByPhase: st.ByPhase, WorkerCompute: st.WorkerCompute})
	}
	sum.Stats = sc.stats
	if o := opts.Observe; o != nil {
		sum.TimelineDropped = o.Timeline.Dropped()
	}
	rt.mu.Lock()
	sum.Deposits = rt.deposits
	rt.mu.Unlock()
	return sum
}

// socketShare returns this process's part of the report's socket line:
// the data frames that arrived for this run — every one of them, since
// the local ranks have consumed their whole receive schedule — and the
// writes the mesh has issued since the previous run's count (a frame
// still in a writer's queue is flushed on the next run's account). On an
// observed process it also publishes the mesh's cumulative link counters
// as comm.net.* gauges.
func (rt *Runtime) socketShare(opts Options) (frames, flushes int64) {
	var total cnet.LinkStats
	for _, ls := range rt.proc.mesh.LinkStats() {
		total.FramesOut += ls.FramesOut
		total.BytesOut += ls.BytesOut
		total.Flushes += ls.Flushes
		total.FramesIn += ls.FramesIn
		total.BytesIn += ls.BytesIn
		total.Reads += ls.Reads
	}
	if o := opts.Observe; o != nil {
		for _, g := range [...]struct {
			name string
			v    int64
		}{
			{"comm.net.frames_out", total.FramesOut}, {"comm.net.payload_bytes_out", total.BytesOut}, {"comm.net.flushes", total.Flushes},
			{"comm.net.frames_in", total.FramesIn}, {"comm.net.payload_bytes_in", total.BytesIn}, {"comm.net.reads", total.Reads},
		} {
			o.Metrics.Gauge(g.name).Set(g.v)
		}
	}
	flushes = total.Flushes - rt.proc.flushed
	rt.proc.flushed = total.Flushes
	return rt.wire.arrived, flushes
}

// mergeSummary folds the summary in one follower's FINISH frame into
// the leader's state: remote rank stats land in rt.stats, and an
// observed leader publishes the follower's cells, as its own ranks
// publish their tallies, and charges its ranks' compute times. reported
// marks the procs whose summary has been merged, so that every remote
// rank is merged exactly once. The frame is decoded into sc, which the
// merged worker times and deposits refer to until the next run.
func (rt *Runtime) mergeSummary(f cnet.Frame, reported []bool, sc *exchangeScratch) (sum procSummary, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("comm: summary from proc %d: %w", f.Src, err)
		}
	}()
	// Everything is checked before anything is merged.
	if sum, err = decodeSummary(f.Payload, rt.proc.NumProcs(), rt.proc.ranksPerProc, sc); err != nil {
		return sum, err
	}
	if sum.Proc != int(f.Src) {
		return sum, fmt.Errorf("it claims to come from proc %d", sum.Proc)
	}
	if reported[sum.Proc] {
		return sum, fmt.Errorf("a second summary of the run")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for slot := range sum.Deposits {
		if _, dup := rt.deposits[slot]; dup {
			return sum, fmt.Errorf("duplicate deposit slot %d", slot)
		}
	}
	reported[sum.Proc] = true
	for _, w := range sum.Stats {
		st := rt.stats[w.Rank]
		st.ByPhase = w.ByPhase
		st.WorkerCompute = w.WorkerCompute
	}
	if rt.pub != nil {
		rt.pub.publish(sum.Cells)
		for _, w := range sum.Stats {
			rt.pub.matrix.AddTime(w.Rank, int(trace.Compute), w.ByPhase[trace.Compute].Time)
		}
	}
	if len(sum.Deposits) > 0 && rt.deposits == nil {
		rt.deposits = make(map[int][]phys.Particle, len(sum.Deposits))
	}
	for slot, ps := range sum.Deposits {
		rt.deposits[slot] = ps
	}
	return sum, nil
}
