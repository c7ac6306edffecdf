package comm

// Multi-process execution: a Proc is one OS process's membership in a
// socket mesh (internal/comm/net) carrying a share of the world's
// ranks. RunProc spans the SPMD function over every process — local
// ranks run as goroutines exactly as under Run, and messages whose
// destination lives elsewhere are encoded into the 52-byte particle
// wire format (or the packed float64 format) and framed over the mesh.
//
// Accounting fidelity: the socket path charges exactly the bytes the
// in-process transports charge. Typed payloads are encoded with the
// same codec whose size the typed path accounts (phys.WireBytes,
// 8 bytes per float64, the 4-byte team frame), and the receiving side
// reconstructs message.wire from the payload length by the same
// formulas — so trace reports, the comm matrix, and flight recordings
// are transport-invariant, which the property tests in internal/core
// pin bitwise.

import (
	"encoding/json"
	"fmt"
	"time"

	cnet "repro/internal/comm/net"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// Proc is one OS process's handle on a multi-process rank group. A
// Proc hosts a contiguous block of ranksPerProc world ranks:
// proc i owns ranks [i*ranksPerProc, (i+1)*ranksPerProc). The handle
// survives multiple RunProc calls (the end-of-run result exchange is a
// natural barrier between them); an abort severs it permanently.
type Proc struct {
	mesh         *cnet.Mesh
	ranksPerProc int
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

// queueDepthTo reports the writer-queue depth toward a rank's process
// — the socket analogue of destination-mailbox occupancy.
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

// bindProc attaches a runtime to the mesh for one run: local ranks are
// [lo, hi), incoming data frames inject into the local mailboxes, and
// a mesh abort releases every local rank.
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
	p.mesh.OnAbort(func(err error) { rt.failLocal(err) })
	p.mesh.Attach(rt.inject)
	return nil
}

// unbindProc detaches the runtime after a run; later frames buffer in
// the mesh for the next run's Attach.
func (rt *Runtime) unbindProc() {
	rt.proc.mesh.Detach()
	rt.proc.mesh.OnAbort(nil)
}

// --- frame conversion ------------------------------------------------

// frameFromMsg encodes a message for the wire. Typed payloads
// serialize with the exact codec whose size the typed transport
// charges, so both sides of the socket account identically.
func frameFromMsg(src, dst int, m message) (cnet.Frame, error) {
	f := cnet.Frame{
		Kind: uint8(m.kind),
		Src:  uint32(src), Dst: uint32(dst),
		Comm: m.comm, Tag: int64(m.tag), Seq: m.seq, Hdr: m.hdr,
	}
	switch m.kind {
	case payloadBytes:
		f.Payload = m.data
	case payloadParticles, payloadTeamParticles:
		if len(m.ps) > 0 {
			f.Payload = phys.EncodeSlice(m.ps)
		}
	case payloadF64s:
		if len(m.f64s) > 0 {
			f.Payload = F64sToBytes(m.f64s)
		}
	default:
		return f, fmt.Errorf("comm: unsendable payload kind %v", m.kind)
	}
	return f, nil
}

// msgFromFrame decodes a wire frame back into a message, recomputing
// the accounted wire size from the payload length by the same formulas
// the payload constructors use.
func msgFromFrame(f cnet.Frame) (message, int, int, error) {
	src, dst := int(f.Src), int(f.Dst)
	m := message{comm: f.Comm, tag: int(f.Tag), kind: payloadKind(f.Kind), seq: f.Seq, hdr: f.Hdr}
	switch m.kind {
	case payloadBytes:
		m.data = f.Payload
		m.wire = len(f.Payload)
	case payloadParticles, payloadTeamParticles:
		ps, err := phys.DecodeSlice(f.Payload)
		if err != nil {
			return m, src, dst, fmt.Errorf("comm: frame from rank %d: %w", src, err)
		}
		m.ps = ps
		m.wire = phys.WireBytes(len(ps))
		if m.kind == payloadTeamParticles {
			m.wire += frameBytes
		}
	case payloadF64s:
		if len(f.Payload)%8 != 0 {
			return m, src, dst, fmt.Errorf("comm: frame from rank %d: float64 payload of %d bytes", src, len(f.Payload))
		}
		m.f64s = BytesToF64s(f.Payload)
		m.wire = len(f.Payload)
	default:
		return m, src, dst, fmt.Errorf("comm: frame from rank %d: unknown payload kind %d", src, f.Kind)
	}
	return m, src, dst, nil
}

// inject delivers one incoming data frame into the destination
// mailbox. It runs on the mesh's per-connection reader goroutines and
// must never block: a full mailbox defers to a chained goroutine (the
// same per-stream chain Isend's overflow uses), so one slow pair cannot
// head-of-line block the connection. Each (src, dst) pair arrives on
// exactly one connection, so the link's tail is accessed
// single-threaded, as a local sender's is.
func (rt *Runtime) inject(f cnet.Frame) {
	m, src, dst, err := msgFromFrame(f)
	if err != nil {
		rt.fail(err)
		return
	}
	if src < 0 || src >= rt.size || dst < rt.lo || dst >= rt.hi {
		rt.fail(fmt.Errorf("comm: frame addressed %d→%d outside this process (local ranks [%d,%d))", src, dst, rt.lo, rt.hi))
		return
	}
	l := rt.link(src, dst)
	if !l.tailPending() {
		select {
		case l.box <- m:
			return
		default:
		}
	}
	rt.deferDelivery(l, func() {
		select {
		case l.box <- m:
		case <-rt.abort:
		}
	})
}

// netSend is the blocking remote delivery under sendMsg: encode, then
// queue to the destination proc's link (blocking while the link queue
// is full, unwinding on abort).
func (rt *Runtime) netSend(src, dst int, m message) {
	f, err := frameFromMsg(src, dst, m)
	if err != nil {
		rt.fail(err)
		panic(errAborted{})
	}
	if err := rt.proc.mesh.Send(rt.proc.procOf(dst), f, rt.abort); err != nil {
		rt.failLocal(err)
		panic(errAborted{})
	}
}

// isendRemote is the nonblocking remote delivery under isendMsg,
// preserving per-pair order through the stream's tail chain exactly
// like the in-process overflow path.
func (c *Comm) isendRemote(l *link, src, dst int, m message) *Request {
	rt := c.rt
	f, err := frameFromMsg(src, dst, m)
	if err != nil {
		rt.fail(err)
		panic(errAborted{})
	}
	to := rt.proc.procOf(dst)
	if !l.tailPending() && rt.proc.mesh.TrySend(to, f) {
		return c.doneRequest()
	}
	rt.deferDelivery(l, func() {
		// A send error means the mesh aborted; the rank goroutine will
		// observe the abort at its next blocking operation.
		rt.proc.mesh.Send(to, f, rt.abort)
	})
	return &Request{comm: c, sent: l.tail}
}

// --- final state deposits -------------------------------------------

// Deposit publishes a rank's slice of the final particle state under a
// globally unique slot index (team id, rank id — whatever the
// algorithm partitions output by). Deposits from every process are
// merged and broadcast at the end of a distributed run, so RunProc
// returns the complete final state on every process; under plain Run
// they are simply collected locally. The slice is retained by
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

func encodeDeposits(deps map[int][]phys.Particle) map[int][]byte {
	if len(deps) == 0 {
		return nil
	}
	out := make(map[int][]byte, len(deps))
	for slot, ps := range deps {
		out[slot] = phys.EncodeSlice(ps)
	}
	return out
}

func decodeDeposits(in map[int][]byte) (map[int][]phys.Particle, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make(map[int][]phys.Particle, len(in))
	for slot, b := range in {
		ps, err := phys.DecodeSlice(b)
		if err != nil {
			return nil, fmt.Errorf("comm: deposit slot %d: %w", slot, err)
		}
		out[slot] = ps
	}
	return out, nil
}

// --- end-of-run result exchange -------------------------------------

// rankStatsWire is one rank's trace accounting in transit.
type rankStatsWire struct {
	Rank          int                `json:"rank"`
	ByPhase       []trace.PhaseStats `json:"by_phase"`
	WorkerCompute []time.Duration    `json:"worker_compute,omitempty"`
}

// procSummary is a follower's end-of-run report to proc 0: per-local-
// rank stats, the local slice of the comm matrix, the local deposits,
// and timeline losses.
type procSummary struct {
	Proc            int                 `json:"proc"`
	Stats           []rankStatsWire     `json:"stats"`
	Matrix          *obs.MatrixSnapshot `json:"matrix,omitempty"`
	Deposits        map[int][]byte      `json:"deposits,omitempty"`
	TimelineDropped int64               `json:"timeline_dropped,omitempty"`
}

// runResult is proc 0's reply: the merged report and final state,
// identical on every process.
type runResult struct {
	Report   *trace.Report  `json:"report"`
	Deposits map[int][]byte `json:"deposits,omitempty"`
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
	payload, err := json.Marshal(rt.localSummary(opts))
	if err != nil {
		mesh.Abort(err)
		return nil, nil, err
	}
	if err := mesh.Send(0, cnet.Frame{Kind: cnet.KindFinish, Src: uint32(rt.proc.ID()), Payload: payload}, nil); err != nil {
		return nil, nil, err
	}
	f, err := mesh.RecvCtrl()
	if err != nil {
		return nil, nil, err
	}
	if f.Kind != cnet.KindResult {
		err := fmt.Errorf("comm: proc %d expected a result frame, got kind %#x", rt.proc.ID(), f.Kind)
		mesh.Abort(err)
		return nil, nil, err
	}
	var res runResult
	if err := json.Unmarshal(f.Payload, &res); err != nil {
		mesh.Abort(err)
		return nil, nil, err
	}
	deps, err := decodeDeposits(res.Deposits)
	if err != nil {
		mesh.Abort(err)
		return nil, nil, err
	}
	return res.Report, deps, nil
}

func (rt *Runtime) leaderJoin(opts Options) (*trace.Report, map[int][]phys.Particle, error) {
	mesh := rt.proc.mesh
	var remoteDropped int64
	for i := 1; i < rt.proc.NumProcs(); i++ {
		f, err := mesh.RecvCtrl()
		if err != nil {
			return rt.Report(), nil, err
		}
		if f.Kind != cnet.KindFinish {
			err := fmt.Errorf("comm: proc 0 expected a finish frame, got kind %#x", f.Kind)
			mesh.Abort(err)
			return rt.Report(), nil, err
		}
		var sum procSummary
		if err := json.Unmarshal(f.Payload, &sum); err != nil {
			mesh.Abort(err)
			return rt.Report(), nil, err
		}
		if err := rt.mergeSummary(sum, opts); err != nil {
			mesh.Abort(err)
			return rt.Report(), nil, err
		}
		remoteDropped += sum.TimelineDropped
	}
	rep := rt.Report()
	if o := opts.Observe; o != nil {
		dropped := o.Timeline.Dropped() + remoteDropped
		rep.TimelineDropped = dropped
		o.Metrics.Gauge("timeline.dropped").Set(dropped)
	}
	rt.mu.Lock()
	deposits := rt.deposits
	rt.mu.Unlock()
	payload, err := json.Marshal(runResult{Report: rep, Deposits: encodeDeposits(deposits)})
	if err != nil {
		mesh.Abort(err)
		return rep, nil, err
	}
	for i := 1; i < rt.proc.NumProcs(); i++ {
		if err := mesh.Send(i, cnet.Frame{Kind: cnet.KindResult, Payload: payload}, nil); err != nil {
			return rep, nil, err
		}
	}
	return rep, deposits, nil
}

// localSummary snapshots this process's share of the run for the
// leader. The matrix slice comes from the observer when the run is
// observed, and from the shadow matrix otherwise — an unobserved
// follower still contributes its counts so the leader's merged matrix
// is globally true.
func (rt *Runtime) localSummary(opts Options) procSummary {
	sum := procSummary{Proc: rt.proc.ID()}
	for r := rt.lo; r < rt.hi; r++ {
		st := rt.stats[r]
		sum.Stats = append(sum.Stats, rankStatsWire{
			Rank:          r,
			ByPhase:       append([]trace.PhaseStats(nil), st.ByPhase[:]...),
			WorkerCompute: st.WorkerCompute,
		})
	}
	mx := rt.shadow
	if o := opts.Observe; o != nil {
		mx = o.Matrix()
		sum.TimelineDropped = o.Timeline.Dropped()
	}
	if mx != nil {
		snap := mx.Snapshot(nil)
		sum.Matrix = &snap
	}
	rt.mu.Lock()
	sum.Deposits = encodeDeposits(rt.deposits)
	rt.mu.Unlock()
	return sum
}

// mergeSummary folds one follower's summary into the leader's state:
// remote rank stats land in rt.stats (sends were counted at the
// sender's process and receives at the receiver's, so cell-wise matrix
// addition and per-rank stats assignment reconstruct the global run).
func (rt *Runtime) mergeSummary(sum procSummary, opts Options) error {
	for _, w := range sum.Stats {
		if w.Rank < 0 || w.Rank >= rt.size || (w.Rank >= rt.lo && w.Rank < rt.hi) {
			return fmt.Errorf("comm: summary from proc %d covers rank %d", sum.Proc, w.Rank)
		}
		st := rt.stats[w.Rank]
		copy(st.ByPhase[:], w.ByPhase)
		st.WorkerCompute = w.WorkerCompute
	}
	if o := opts.Observe; o != nil && sum.Matrix != nil {
		o.Matrix().Merge(*sum.Matrix)
	}
	deps, err := decodeDeposits(sum.Deposits)
	if err != nil {
		return err
	}
	if len(deps) > 0 {
		rt.mu.Lock()
		if rt.deposits == nil {
			rt.deposits = make(map[int][]phys.Particle, len(deps))
		}
		for slot, ps := range deps {
			if _, dup := rt.deposits[slot]; dup {
				rt.mu.Unlock()
				return fmt.Errorf("comm: duplicate deposit slot %d from proc %d", slot, sum.Proc)
			}
			rt.deposits[slot] = ps
		}
		rt.mu.Unlock()
	}
	return nil
}
