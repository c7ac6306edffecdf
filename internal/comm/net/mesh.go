package net

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one process's view of the mesh to form.
type Config struct {
	// Rendezvous is the address all processes agree on: "host:port" for
	// TCP, or a filesystem path (or "unix:path") for unix-domain
	// sockets. The process that manages to bind it becomes proc 0 and
	// assigns ids to the others in arrival order — valid because the
	// procs of an SPMD run are symmetric until numbered.
	Rendezvous string
	// Procs is the number of OS processes in the mesh (>= 1).
	Procs int
	// Timeout bounds mesh formation (default 60s).
	Timeout time.Duration
}

// Mesh is one process's membership in a fully connected process group.
// Data frames are delivered to the attached sink in per-connection
// receive order; control frames (Finish/Result) are lent to RecvCtrl.
// A Mesh survives multiple runs — the end-of-run result exchange is a
// natural inter-run barrier — but an abort severs it permanently.
type Mesh struct {
	network string // "tcp" or "unix"
	id      int
	procs   int
	peers   []*peer // by proc id; peers[id] is nil

	// routeMu serializes data-frame delivery across the per-connection
	// readers and orders sink attachment against frames that arrive
	// before a run begins (they buffer in pending, then drain under the
	// same lock, so per-pair FIFO order survives the hand-off).
	routeMu sync.Mutex
	sink    func(from int, f Frame)
	pending []pendingFrame

	// ctrl has room for one frame per link: a link lends one at a time.
	ctrl chan ctrlFrame

	abortCh   chan struct{}
	abortOnce sync.Once
	closeCh   chan struct{}
	closeOnce sync.Once
	errMu     sync.Mutex
	err       error
	onAbort   func(error)

	wg sync.WaitGroup
}

// ctrlFrame is a control frame lent by the reader of link p, which
// reads nothing further until RecvCtrl signals p.ctrlDone.
type ctrlFrame struct {
	p *peer
	f Frame
}

// pendingFrame is a data frame that arrived while no sink was attached,
// with a payload the mesh owns (the decoder only lent it).
type pendingFrame struct {
	from int
	f    Frame
}

type peer struct {
	id   int
	conn net.Conn
	// br is the link's read buffer, created before the first read so
	// the introduction frame and the data stream share one reader — a
	// second buffered reader would silently swallow whatever the first
	// one slurped past the frame it was asked for.
	br *bufio.Reader

	// The link's write buffer pair. Senders append sealed frames to fill
	// under mu; the writer goroutine takes fill in exchange for spare,
	// which it has finished writing, and owns the taken buffer until its
	// one Write returns. Both keep the capacity they grow to.
	mu     sync.Mutex
	fill   []byte
	queued int // frames in fill
	// drained is made by a sender that finds more than linkBufSize bytes
	// in fill, and closed by the writer when it takes them.
	drained chan struct{}
	// wake carries one token per fill that turned non-empty.
	wake  chan struct{}
	spare []byte // the writer's

	// ctrlDone is signalled by RecvCtrl once the caller is done with the
	// control payload the link's reader lent it.
	ctrlDone chan struct{}

	// sent belongs to the writer goroutine, rcvd to the reader goroutine.
	sent, rcvd linkCounters
}

// linkCounters counts one direction of a link. Only the goroutine that
// owns the direction adds to them; LinkStats reads them from outside,
// which is the only reason they are atomics.
type linkCounters struct {
	frames  atomic.Int64
	payload atomic.Int64 // payload bytes, i.e. frame bytes minus prefix and header
	ios     atomic.Int64 // Write (sent) or Read (rcvd) calls on the connection
}

// LinkStats is a snapshot of one peer link's counters since the mesh
// formed. Flushes and Reads count calls on the connection, so
// FramesOut/Flushes is the write coalescing actually achieved.
type LinkStats struct {
	Peer                         int
	FramesOut, BytesOut, Flushes int64
	FramesIn, BytesIn, Reads     int64
}

// LinkStats returns the counters of every peer link, by proc id (the
// entry of this proc itself is zero).
func (m *Mesh) LinkStats() []LinkStats {
	out := make([]LinkStats, m.procs)
	for i, p := range m.peers {
		out[i].Peer = i
		if p == nil {
			continue
		}
		out[i].FramesOut, out[i].BytesOut, out[i].Flushes = p.sent.frames.Load(), p.sent.payload.Load(), p.sent.ios.Load()
		out[i].FramesIn, out[i].BytesIn, out[i].Reads = p.rcvd.frames.Load(), p.rcvd.payload.Load(), p.rcvd.ios.Load()
	}
	return out
}

// countedConn counts the Read and Write calls a link's buffered reader
// and writer actually issue on the connection.
type countedConn struct{ p *peer }

func (c countedConn) Read(b []byte) (int, error) {
	c.p.rcvd.ios.Add(1)
	return c.p.conn.Read(b)
}

func (c countedConn) Write(b []byte) (int, error) {
	c.p.sent.ios.Add(1)
	return c.p.conn.Write(b)
}

// linkBufSize is the size of each link's read buffer and the starting
// capacity of each of its two write buffers. A sender that finds more
// than this many unwritten bytes in the filling buffer waits for the
// writer to take them, mirroring the bounded in-process mailboxes.
const linkBufSize = 64 << 10

// newPeer wires up one link's state around an established connection.
func newPeer(id int, conn net.Conn) *peer {
	p := &peer{
		id: id, conn: conn,
		fill: make([]byte, 0, linkBufSize), spare: make([]byte, 0, linkBufSize),
		wake: make(chan struct{}, 1), ctrlDone: make(chan struct{}, 1),
	}
	p.br = bufio.NewReaderSize(countedConn{p}, linkBufSize)
	return p
}

// resolveNetwork splits a rendezvous address into (network, address):
// "unix:path" or any address containing a path separator selects
// unix-domain sockets, everything else TCP.
func resolveNetwork(addr string) (string, string) {
	if p, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", p
	}
	if strings.ContainsRune(addr, '/') {
		return "unix", addr
	}
	return "tcp", addr
}

// Join forms the mesh: it races to bind the rendezvous address — the
// winner coordinates as proc 0, everyone else enrolls by dialing — and
// returns once every pairwise connection is up.
func Join(cfg Config) (*Mesh, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("net: non-positive proc count %d", cfg.Procs)
	}
	network, addr := resolveNetwork(cfg.Rendezvous)
	deadline := time.Now().Add(timeoutOf(cfg))
	if ln, err := net.Listen(network, addr); err == nil {
		r := &Rendezvous{cfg: cfg, network: network, addr: addr, ln: ln, deadline: deadline}
		return r.Accept()
	}
	return enroll(cfg, network, addr, deadline)
}

func timeoutOf(cfg Config) time.Duration {
	if cfg.Timeout > 0 {
		return cfg.Timeout
	}
	return 60 * time.Second
}

// Rendezvous is a bound rendezvous point whose address can be handed to
// follower processes before mesh formation completes — the launcher
// binds port 0, reads Addr, spawns followers, then Accepts.
type Rendezvous struct {
	cfg      Config
	network  string
	addr     string
	ln       net.Listener
	deadline time.Time
}

// Listen binds the rendezvous address and returns without waiting for
// peers. The caller becomes proc 0 when Accept completes the mesh.
func Listen(cfg Config) (*Rendezvous, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("net: non-positive proc count %d", cfg.Procs)
	}
	network, addr := resolveNetwork(cfg.Rendezvous)
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("net: bind rendezvous %s: %w", cfg.Rendezvous, err)
	}
	return &Rendezvous{cfg: cfg, network: network, addr: addr, ln: ln, deadline: time.Now().Add(timeoutOf(cfg))}, nil
}

// Addr returns the bound rendezvous address in the form Join accepts
// (a "unix:" prefix for unix sockets, host:port for TCP).
func (r *Rendezvous) Addr() string {
	a := r.ln.Addr().String()
	if r.network == "unix" {
		return "unix:" + a
	}
	return a
}

// Close abandons an un-Accepted rendezvous.
func (r *Rendezvous) Close() error { return r.ln.Close() }

// Accept runs the coordinator side of mesh formation: collect a hello
// from every other proc, assign ids in arrival order, reply with the
// full address list, then form the data mesh.
func (r *Rendezvous) Accept() (*Mesh, error) {
	defer func() {
		r.ln.Close()
		if r.network == "unix" {
			os.Remove(r.addr)
		}
	}()
	dataLn, dataAddr, cleanup, err := dataListener(r.network, r.addr)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, r.cfg.Procs)
	addrs[0] = dataAddr
	conns := make([]net.Conn, 0, r.cfg.Procs-1)
	abandon := func(err error) (*Mesh, error) {
		for _, c := range conns {
			c.Close()
		}
		dataLn.Close()
		cleanup()
		return nil, err
	}
	if dl, ok := r.ln.(interface{ SetDeadline(time.Time) error }); ok {
		dl.SetDeadline(r.deadline)
	}
	for i := 1; i < r.cfg.Procs; i++ {
		conn, err := r.ln.Accept()
		if err != nil {
			return abandon(fmt.Errorf("net: rendezvous accept (%d/%d procs joined): %w", i-1, r.cfg.Procs-1, err))
		}
		conn.SetDeadline(r.deadline)
		f, err := ReadFrame(bufio.NewReader(conn))
		if err != nil || f.Kind != KindHello {
			conn.Close()
			return abandon(fmt.Errorf("net: bad rendezvous hello: %v", err))
		}
		h, err := decodeHello(f.Payload)
		if err != nil {
			conn.Close()
			return abandon(err)
		}
		addrs[i] = h.Addr
		conns = append(conns, conn)
	}
	for i, conn := range conns {
		payload := encodeWelcome(welcome{ID: i + 1, Addrs: addrs})
		if err := writeFrame(conn, &Frame{Kind: KindWelcome, Payload: payload}); err != nil {
			return abandon(fmt.Errorf("net: rendezvous welcome to proc %d: %w", i+1, err))
		}
		conn.Close()
	}
	return formMesh(r.network, 0, r.cfg.Procs, addrs, dataLn, cleanup, r.deadline)
}

// enroll is the non-coordinator side: dial the rendezvous (retrying
// while the coordinator binds), introduce our data listener, and learn
// our id plus everyone's addresses.
func enroll(cfg Config, network, addr string, deadline time.Time) (*Mesh, error) {
	dataLn, dataAddr, cleanup, err := dataListener(network, addr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Mesh, error) {
		dataLn.Close()
		cleanup()
		return nil, err
	}
	var conn net.Conn
	for {
		conn, err = net.DialTimeout(network, addr, time.Until(deadline))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("net: rendezvous %s never came up: %w", cfg.Rendezvous, err))
		}
		time.Sleep(20 * time.Millisecond)
	}
	conn.SetDeadline(deadline)
	if err := writeFrame(conn, &Frame{Kind: KindHello, Payload: encodeHello(hello{Addr: dataAddr})}); err != nil {
		conn.Close()
		return fail(fmt.Errorf("net: rendezvous hello: %w", err))
	}
	f, err := ReadFrame(bufio.NewReader(conn))
	conn.Close()
	if err != nil || f.Kind != KindWelcome {
		return fail(fmt.Errorf("net: rendezvous welcome: %v", err))
	}
	w, err := decodeWelcome(f.Payload, cfg.Procs)
	if err != nil {
		return fail(err)
	}
	return formMesh(network, w.ID, cfg.Procs, w.Addrs, dataLn, cleanup, deadline)
}

// dataSeq disambiguates unix data-socket paths when several meshes (or
// several members of one mesh, as in tests) live in a single process.
var dataSeq atomic.Uint64

// dataListener opens this proc's data listener: an ephemeral TCP port
// on the rendezvous host, or a unique socket path next to a unix
// rendezvous.
func dataListener(network, rendezvous string) (net.Listener, string, func(), error) {
	if network == "unix" {
		path := fmt.Sprintf("%s.d%d.%d", rendezvous, os.Getpid(), dataSeq.Add(1))
		ln, err := net.Listen("unix", path)
		if err != nil {
			return nil, "", nil, fmt.Errorf("net: data listener: %w", err)
		}
		return ln, path, func() { os.Remove(path) }, nil
	}
	host, _, err := net.SplitHostPort(rendezvous)
	if err != nil || host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, "", nil, fmt.Errorf("net: data listener: %w", err)
	}
	return ln, ln.Addr().String(), func() {}, nil
}

// newMesh returns a mesh with no links yet.
func newMesh(network string, id, procs int) *Mesh {
	return &Mesh{
		network: network,
		id:      id,
		procs:   procs,
		peers:   make([]*peer, procs),
		ctrl:    make(chan ctrlFrame, procs),
		abortCh: make(chan struct{}),
		closeCh: make(chan struct{}),
	}
}

// formMesh completes the pairwise connections: proc i dials every j<i
// (identifying itself with a hello frame) and then accepts from every
// k>i. Dials target only lower ids and each proc accepts only after
// its dials, so by induction no cycle of procs waits on each other.
func formMesh(network string, id, procs int, addrs []string, dataLn net.Listener, cleanup func(), deadline time.Time) (*Mesh, error) {
	m := newMesh(network, id, procs)
	fail := func(err error) (*Mesh, error) {
		for _, p := range m.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		dataLn.Close()
		cleanup()
		return nil, err
	}
	for j := 0; j < id; j++ {
		conn, err := net.DialTimeout(network, addrs[j], time.Until(deadline))
		if err != nil {
			return fail(fmt.Errorf("net: proc %d dial proc %d: %w", id, j, err))
		}
		conn.SetDeadline(deadline)
		if err := writeFrame(conn, &Frame{Kind: KindHello, Src: uint32(id)}); err != nil {
			conn.Close()
			return fail(fmt.Errorf("net: proc %d identify to proc %d: %w", id, j, err))
		}
		m.peers[j] = newPeer(j, conn)
	}
	if dl, ok := dataLn.(interface{ SetDeadline(time.Time) error }); ok {
		dl.SetDeadline(deadline)
	}
	for k := id + 1; k < procs; k++ {
		conn, err := dataLn.Accept()
		if err != nil {
			return fail(fmt.Errorf("net: proc %d accept higher peers: %w", id, err))
		}
		conn.SetDeadline(deadline)
		// The introduction is read through the reader the link will keep:
		// data frames can already be queued behind it (the dialing proc's
		// ranks start as soon as its mesh forms), and a throwaway buffered
		// reader would slurp and then discard them.
		p := newPeer(-1, conn)
		f, err := ReadFrame(p.br)
		if err != nil || f.Kind != KindHello || int(f.Src) <= id || int(f.Src) >= procs {
			conn.Close()
			return fail(fmt.Errorf("net: proc %d: bad peer introduction: %v", id, err))
		}
		if m.peers[f.Src] != nil {
			conn.Close()
			return fail(fmt.Errorf("net: proc %d introduced twice", f.Src))
		}
		p.id = int(f.Src)
		m.peers[p.id] = p
	}
	dataLn.Close()
	cleanup()
	m.start()
	return m, nil
}

// start launches the writer and reader goroutine of every link.
func (m *Mesh) start() {
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		p.conn.SetDeadline(time.Time{})
		m.wg.Add(2)
		go m.writeLoop(p)
		go m.readLoop(p)
	}
}

// writeFrame encodes and writes one frame directly (mesh-formation
// path, before the writer goroutines exist).
func writeFrame(conn net.Conn, f *Frame) error {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = conn.Write(buf)
	return err
}

// ID returns this process's proc id (0 = coordinator).
func (m *Mesh) ID() int { return m.id }

// Procs returns the number of processes in the mesh.
func (m *Mesh) Procs() int { return m.procs }

// Network returns the transport in use: "tcp" or "unix".
func (m *Mesh) Network() string { return m.network }

// Attach installs the data-frame sink and drains any frames that
// arrived before it, in order. The sink is told which proc's link a
// frame arrived on — each (src, dst) rank pair lives on exactly one
// link, so the receiver can keep per-link state without locking. The
// frame's payload is only lent (see Decoder): the sink decodes or copies
// what it needs before returning. The sink must not block: delivery runs
// on the per-connection reader goroutines under the routing lock, so
// receivers that might stall must defer to their own goroutines (the
// comm runtime's overflow chains do exactly that).
func (m *Mesh) Attach(sink func(from int, f Frame)) {
	m.routeMu.Lock()
	defer m.routeMu.Unlock()
	for _, pf := range m.pending {
		sink(pf.from, pf.f)
	}
	m.pending = nil
	m.sink = sink
}

// Detach removes the sink; subsequent data frames buffer for the next
// Attach.
func (m *Mesh) Detach() {
	m.routeMu.Lock()
	m.sink = nil
	m.routeMu.Unlock()
}

// OnAbort registers a callback invoked (once) when the mesh aborts.
func (m *Mesh) OnAbort(fn func(error)) {
	m.errMu.Lock()
	m.onAbort = fn
	m.errMu.Unlock()
}

func (m *Mesh) route(from int, f Frame) {
	m.routeMu.Lock()
	defer m.routeMu.Unlock()
	if m.sink != nil {
		m.sink(from, f)
		return
	}
	f.Payload = bytes.Clone(f.Payload)
	m.pending = append(m.pending, pendingFrame{from, f})
}

// A Payload appends a frame's payload to a link's write buffer. The
// message path encodes typed payloads straight into it, so a frame is
// copied once, from the sender's slice into the buffer the writer
// hands to the socket. AppendPayload runs under the link's lock: it
// must only encode, never block or call into the mesh.
type Payload interface {
	AppendPayload(dst []byte) []byte
}

// SendPayload queues a frame with f's header (f.Payload is ignored) and
// pl's payload to a peer, blocking while the link's backlog is full.
// cancel (may be nil) aborts the wait. Returns an error when the mesh has
// aborted or the wait was canceled. The frame is appended to the filling
// buffer of the link once that buffer holds at most linkBufSize
// unwritten bytes (a larger frame grows it), and its first frame wakes
// the writer; pl is encoded before SendPayload returns.
func (m *Mesh) SendPayload(to int, f *Frame, pl Payload, cancel <-chan struct{}) error {
	p := m.peers[to]
	if p == nil {
		return fmt.Errorf("net: proc %d sending to itself", to)
	}
	p.mu.Lock()
	for len(p.fill) > linkBufSize {
		if p.drained == nil {
			p.drained = make(chan struct{})
		}
		drained := p.drained
		p.mu.Unlock()
		select {
		case <-drained:
		case <-m.abortCh:
			return m.Err()
		case <-cancel:
			return errors.New("net: send canceled")
		}
		p.mu.Lock()
	}
	start := len(p.fill)
	buf := pl.AppendPayload(AppendHeader(p.fill, f))
	if err := sealFrame(buf[start:]); err != nil {
		p.fill = buf[:start]
		p.mu.Unlock()
		return err
	}
	p.fill = buf
	if p.queued++; p.queued == 1 {
		select {
		case p.wake <- struct{}{}:
		default: // a closed mesh's writer left its last token
		}
	}
	p.mu.Unlock()
	return nil
}

// QueueDepth returns the frames waiting for the writer of the link
// toward a peer — the socket path's analogue of mailbox occupancy.
func (m *Mesh) QueueDepth(to int) int {
	p := m.peers[to]
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// RecvCtrl blocks for the next control frame (Finish or Result) and
// calls use with it, returning use's error. The payload is lent out of
// the link's read buffer: it is valid until use returns, and the link
// reads nothing further until then.
func (m *Mesh) RecvCtrl(use func(Frame) error) error {
	select {
	case c := <-m.ctrl:
		err := use(c.f)
		c.p.ctrlDone <- struct{}{} // never blocks: the reader waits for one signal per frame it lends
		return err
	case <-m.abortCh:
		return m.Err()
	}
}

// Err returns the abort error, or nil while the mesh is healthy.
func (m *Mesh) Err() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
}

// Abort severs the mesh: a best-effort abort frame goes out on every
// link and all connections close, so remote procs blocked on receives
// fail fast instead of hanging on a crashed peer. Idempotent; the
// first error wins.
func (m *Mesh) Abort(err error) {
	m.abortOnce.Do(func() {
		m.errMu.Lock()
		if m.err == nil {
			if err == nil {
				err = errors.New("net: mesh aborted")
			}
			m.err = err
		}
		cb := m.onAbort
		first := m.err
		m.errMu.Unlock()
		close(m.abortCh)
		if cb != nil {
			cb(first)
		}
	})
}

// Close shuts the mesh down in an orderly way: writers flush their
// queues and close the connections. Safe to call multiple times.
func (m *Mesh) Close() error {
	m.closeOnce.Do(func() { close(m.closeCh) })
	m.wg.Wait()
	return nil
}

// writeLoop owns all writes on one link: it takes the filling buffer
// and writes it to the socket in one call. On abort it emits a final
// abort frame (with a short deadline — the peer may already be gone)
// and severs the connection.
//
// Flush policy. A flush is a write syscall here and a read plus a
// netpoll wake-up at the peer, which at 8-particle blocks costs more
// than the frame itself, and the ranks of a timestep send in bursts: the
// 32 team leaders of a 2×32 grid broadcast one after another. The first
// of them wakes this goroutine, which the scheduler runs next, ahead of
// the senders still runnable behind it — so writing what the buffer
// holds at that moment sends every frame of the burst on its own. The
// writer therefore yields the processor once, lets the goroutines that
// were runnable append their frames meanwhile, and only then takes the
// buffer and writes it.
//
// Latency bound. A frame waits for at most that one runtime.Gosched.
// With nothing else runnable — a lone message, a ping-pong — the yield
// returns at once and the frame leaves as before. Otherwise the writer
// resumes from the global run queue, which every P polls when its local
// queue empties and at the latest on its 61st scheduling decision, so
// the wait is bounded by the goroutines already runnable, each running
// until it blocks or is preempted (10 ms): exactly the ranks whose
// frames the flush is waiting to carry. Nothing appended after the yield
// can delay the flush further; the writer never yields twice per flush.
func (m *Mesh) writeLoop(p *peer) {
	defer m.wg.Done()
	// control writes a frame the mesh itself originates.
	control := func(f Frame) {
		p.conn.SetWriteDeadline(time.Now().Add(time.Second))
		if buf, err := AppendFrame(p.spare[:0], &f); err == nil {
			p.sent.frames.Add(1)
			p.sent.payload.Add(int64(len(f.Payload)))
			countedConn{p}.Write(buf)
		}
		p.conn.Close()
	}
	for {
		select {
		case <-p.wake:
			runtime.Gosched()
			if err := p.flush(); err != nil {
				m.Abort(fmt.Errorf("net: write to proc %d: %w", p.id, err))
				p.conn.Close()
				return
			}
		case <-m.abortCh:
			af := Frame{Kind: KindAbort}
			if e := m.Err(); e != nil {
				af.Payload = []byte(e.Error())
			}
			control(af)
			return
		case <-m.closeCh:
			if p.flush() != nil {
				p.conn.Close()
				return
			}
			// A goodbye frame marks this as an orderly departure: without
			// it the peer's reader cannot tell our exit from a crash and
			// would abort its mesh. Short deadline — the peer may already
			// be gone.
			control(Frame{Kind: KindBye})
			return
		}
	}
}

// flush takes the filling buffer, leaves the spare one in its place,
// releases the senders waiting for room, and writes what it took.
func (p *peer) flush() error {
	p.mu.Lock()
	buf, frames := p.fill, p.queued
	p.fill, p.queued = p.spare[:0], 0
	if p.drained != nil {
		close(p.drained)
		p.drained = nil
	}
	p.mu.Unlock()
	p.spare = buf
	if frames == 0 {
		return nil
	}
	p.sent.frames.Add(int64(frames))
	p.sent.payload.Add(int64(len(buf) - frames*FrameOverhead))
	_, err := countedConn{p}.Write(buf)
	return err
}

// readLoop owns all reads on one link, routing data frames to the sink
// and lending control frames to RecvCtrl. Any read failure outside an
// orderly shutdown aborts the mesh — a crashed peer must fail this
// proc, not hang it.
func (m *Mesh) readLoop(p *peer) {
	defer m.wg.Done()
	dec := NewDecoder(p.br)
	for {
		f, err := dec.Next()
		if err != nil {
			select {
			case <-m.closeCh:
			case <-m.abortCh:
			default:
				m.Abort(fmt.Errorf("net: read from proc %d: %w", p.id, err))
			}
			return
		}
		p.rcvd.frames.Add(1)
		p.rcvd.payload.Add(int64(len(f.Payload)))
		switch {
		case IsData(f.Kind):
			m.route(p.id, f)
		case f.Kind == KindFinish || f.Kind == KindResult:
			// The payload is lent to RecvCtrl, so the next frame is read
			// only once the caller is done with it.
			select {
			case m.ctrl <- ctrlFrame{p, f}:
			case <-m.abortCh:
				return
			case <-m.closeCh:
				return
			}
			select {
			case <-p.ctrlDone:
			case <-m.abortCh:
				return
			case <-m.closeCh:
				return
			}
		case f.Kind == KindAbort:
			msg := "peer aborted"
			if len(f.Payload) > 0 {
				msg = string(f.Payload)
			}
			m.Abort(fmt.Errorf("net: proc %d aborted: %s", p.id, msg))
			return
		case f.Kind == KindBye:
			// Orderly departure: the peer closed its mesh after finishing
			// its runs. Stop reading this link so the connection teardown
			// that follows is never mistaken for a crash.
			return
		default:
			m.Abort(fmt.Errorf("net: unexpected frame kind %#x from proc %d", f.Kind, p.id))
			return
		}
	}
}
