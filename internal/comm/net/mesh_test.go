package net

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// joinAll forms an n-proc mesh within this test process, one goroutine
// per member, and returns the meshes indexed by proc id.
func joinAll(t testing.TB, rendezvous string, n int) []*Mesh {
	t.Helper()
	meshes := make([]*Mesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := Join(Config{Rendezvous: rendezvous, Procs: n, Timeout: 30 * time.Second})
			if err != nil {
				errs[i] = err
				return
			}
			meshes[m.ID()] = m
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	return meshes
}

// bytesPayload is a payload already encoded.
type bytesPayload []byte

func (b bytesPayload) AppendPayload(dst []byte) []byte { return append(dst, b...) }

// send queues f, its payload already encoded, to the peer to.
func send(m *Mesh, to int, f Frame, cancel <-chan struct{}) error {
	return m.SendPayload(to, &f, bytesPayload(f.Payload), cancel)
}

func unixRendezvous(t testing.TB) string {
	return "unix:" + filepath.Join(t.TempDir(), "r.sock")
}

func TestMeshFormsAndRoutesData(t *testing.T) {
	const n = 3
	meshes := joinAll(t, unixRendezvous(t), n)
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()

	// Every proc sends one tagged frame to every other proc; sinks
	// collect them.
	type got struct {
		from int
		seq  uint64
	}
	sinks := make([]chan got, n)
	for i, m := range meshes {
		ch := make(chan got, 16)
		sinks[i] = ch
		m.Attach(func(_ int, f Frame) { ch <- got{from: int(f.Src), seq: f.Seq} })
	}
	for i, m := range meshes {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if err := send(m, j, Frame{Kind: KindBytes, Src: uint32(i), Dst: uint32(j), Seq: 1}, nil); err != nil {
				t.Fatalf("send %d→%d: %v", i, j, err)
			}
		}
	}
	for i := range meshes {
		seen := map[int]bool{}
		for k := 0; k < n-1; k++ {
			select {
			case g := <-sinks[i]:
				seen[g.from] = true
			case <-time.After(10 * time.Second):
				t.Fatalf("proc %d: timed out waiting for frame %d", i, k)
			}
		}
		for j := 0; j < n; j++ {
			if j != i && !seen[j] {
				t.Errorf("proc %d never heard from proc %d", i, j)
			}
		}
	}
}

// TestMeshDeliversFramesSentBeforeAttach pins two delivery guarantees
// at once: frames sent immediately after mesh formation must not be
// lost even though the introduction frame shares the connection with
// them (a second buffered reader would swallow whatever the first read
// ahead), and frames arriving before the receiver attaches its sink
// must buffer and drain in order.
func TestMeshDeliversFramesSentBeforeAttach(t *testing.T) {
	const burst = 200
	meshes := joinAll(t, unixRendezvous(t), 2)
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()

	// Proc 1 fires a burst at proc 0 the instant the mesh exists; proc 0
	// attaches only afterwards.
	for s := 1; s <= burst; s++ {
		if err := send(meshes[1], 0, Frame{Kind: KindBytes, Src: 2, Dst: 0, Seq: uint64(s)}, nil); err != nil {
			t.Fatalf("send %d: %v", s, err)
		}
	}
	recv := make(chan uint64, burst)
	time.Sleep(50 * time.Millisecond) // let frames land in the pending buffer
	meshes[0].Attach(func(_ int, f Frame) { recv <- f.Seq })
	for want := uint64(1); want <= burst; want++ {
		select {
		case seq := <-recv:
			if seq != want {
				t.Fatalf("frame %d arrived out of order (got seq %d)", want, seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out at seq %d", want)
		}
	}
}

// recvCtrl receives the next control frame and copies it out of the
// loan.
func recvCtrl(m *Mesh) (got Frame, err error) {
	err = m.RecvCtrl(func(f Frame) error {
		got = f
		got.Payload = append([]byte(nil), f.Payload...)
		return nil
	})
	return got, err
}

func TestMeshCtrlPlane(t *testing.T) {
	meshes := joinAll(t, unixRendezvous(t), 2)
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	if err := send(meshes[1], 0, Frame{Kind: KindFinish, Src: 1, Payload: []byte("summary")}, nil); err != nil {
		t.Fatal(err)
	}
	f, err := recvCtrl(meshes[0])
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindFinish || string(f.Payload) != "summary" {
		t.Fatalf("got %+v", f)
	}
	if err := send(meshes[0], 1, Frame{Kind: KindResult, Payload: []byte("merged")}, nil); err != nil {
		t.Fatal(err)
	}
	f, err = recvCtrl(meshes[1])
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindResult || string(f.Payload) != "merged" {
		t.Fatalf("got %+v", f)
	}
}

// TestMeshCtrlPayloadLentUntilDone pins the loan of a control payload:
// while RecvCtrl's caller still reads it, the link reads no further
// frame, so a second control frame right behind it — a forged second
// FINISH, say — can neither overwrite the payload nor be decoded.
func TestMeshCtrlPayloadLentUntilDone(t *testing.T) {
	meshes := joinAll(t, unixRendezvous(t), 2)
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	for _, payload := range []string{"first summary", "forged second"} {
		if err := send(meshes[1], 0, Frame{Kind: KindFinish, Src: 1, Payload: []byte(payload)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"first summary", "forged second"} {
		err := meshes[0].RecvCtrl(func(f Frame) error {
			time.Sleep(20 * time.Millisecond) // time enough for the reader to run ahead if it could
			if got := string(f.Payload); got != want {
				t.Errorf("lent payload reads %q, want %q", got, want)
			}
			if in := meshes[0].LinkStats()[1].FramesIn; want == "first summary" && in != 1 {
				t.Errorf("the link decoded %d frames while the first was lent, want 1", in)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMeshSendWaitsOnBacklog pins the link's backlog bound against a
// peer that reads nothing: senders fill the link until the writer is
// stuck in its Write and more than linkBufSize bytes wait behind it,
// and then a sender waits — until its cancel channel closes, or the
// mesh aborts — instead of growing the buffer without bound.
func TestMeshSendWaitsOnBacklog(t *testing.T) {
	defer leakcheck.Check(t)()
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "deaf.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	deaf, err := ln.Accept() // never read
	if err != nil {
		t.Fatal(err)
	}
	a := newMesh("unix", 0, 2)
	a.peers[1] = newPeer(1, dialed)
	a.start()
	p := a.peers[1]
	defer a.Close()
	defer deaf.Close() // fails the stuck Write, so that the writer ends

	frame := Frame{Kind: KindBytes, Payload: make([]byte, 4<<10)}
	send := func(cancel <-chan struct{}) <-chan error {
		done := make(chan error, 1)
		go func() {
			for {
				if err := send(a, 1, frame, cancel); err != nil {
					done <- err
					return
				}
			}
		}()
		return done
	}
	stillWaiting := func(done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			t.Fatalf("a sender behind a full backlog returned %v", err)
		case <-time.After(50 * time.Millisecond):
		}
	}

	cancel := make(chan struct{})
	done := send(cancel)
	for end := time.Now().Add(10 * time.Second); ; {
		p.mu.Lock()
		waiting, backlog := p.drained != nil, len(p.fill)
		p.mu.Unlock()
		if waiting {
			if backlog <= linkBufSize || backlog > linkBufSize+FrameOverhead+len(frame.Payload) {
				t.Errorf("a sender waits behind %d unwritten bytes, want more than %d by at most one frame", backlog, linkBufSize)
			}
			break
		}
		if time.Now().After(end) {
			t.Fatalf("no sender waits after 10 s; %d bytes unwritten", backlog)
		}
		time.Sleep(time.Millisecond)
	}
	stillWaiting(done)
	close(cancel)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Errorf("a canceled wait returned %v, want the cancel error", err)
	}

	done = send(nil)
	stillWaiting(done)
	boom := fmt.Errorf("rank 3 exploded")
	a.Abort(boom)
	if err := <-done; err != boom {
		t.Errorf("a wait on an aborted mesh returned %v, want its error %v", err, boom)
	}
}

// TestMeshAbortPropagates kills one member and requires every peer to
// fail fast — blocked receives must return the propagated error, not
// hang on a dead process.
func TestMeshAbortPropagates(t *testing.T) {
	const n = 3
	meshes := joinAll(t, unixRendezvous(t), n)
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	boom := fmt.Errorf("rank 7 exploded")
	meshes[2].Abort(boom)
	for i := 0; i < 2; i++ {
		if _, err := recvCtrl(meshes[i]); err == nil {
			t.Fatalf("proc %d: RecvCtrl returned without error after peer abort", i)
		} else if !strings.Contains(err.Error(), "exploded") {
			t.Fatalf("proc %d: abort reason lost: %v", i, err)
		}
		if meshes[i].Err() == nil {
			t.Fatalf("proc %d: Err() nil after abort", i)
		}
	}
	// The aborting mesh reports its own error verbatim.
	if err := meshes[2].Err(); err != boom {
		t.Fatalf("origin Err() = %v", err)
	}
}

// TestMeshOrderlyCloseIsNotACrash pins the shutdown contract: a mesh
// member that finishes and closes cleanly must not trip the abort path
// on its peers. The departing writer sends a goodbye frame before
// closing the connection, and frames queued ahead of the goodbye still
// arrive (the leader's result frame rides exactly this ordering).
func TestMeshOrderlyCloseIsNotACrash(t *testing.T) {
	meshes := joinAll(t, unixRendezvous(t), 3)
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	recv := make(chan Frame, 1)
	meshes[0].Attach(func(_ int, f Frame) { recv <- f })

	// Proc 2 sends one last frame and departs; the frame must still be
	// delivered, and neither survivor may observe an abort.
	if err := send(meshes[2], 0, Frame{Kind: KindBytes, Src: 99, Dst: 0, Seq: 5}, nil); err != nil {
		t.Fatal(err)
	}
	meshes[2].Close()
	select {
	case f := <-recv:
		if f.Seq != 5 {
			t.Fatalf("last frame seq %d, want 5", f.Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frame queued before Close never arrived")
	}
	// Give the teardown a moment to propagate, then check the survivors.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if err := meshes[i].Err(); err != nil {
			t.Fatalf("proc %d aborted on a peer's orderly close: %v", i, err)
		}
	}
	// The survivors can still talk to each other.
	if err := send(meshes[1], 0, Frame{Kind: KindBytes, Src: 1, Dst: 0, Seq: 6}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-recv:
		if f.Seq != 6 {
			t.Fatalf("post-departure frame seq %d, want 6", f.Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("surviving pair stopped delivering after a peer departed")
	}
}

// joinTCP forms a two-proc mesh over TCP loopback: the leader binds
// port 0, the follower joins at the address it got.
func joinTCP(t testing.TB) (leader, follower *Mesh) {
	t.Helper()
	r, err := Listen(Config{Rendezvous: "127.0.0.1:0", Procs: 2, Timeout: 30 * time.Second})
	if err != nil {
		t.Skipf("no TCP loopback here: %v", err)
	}
	var joinErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		follower, joinErr = Join(Config{Rendezvous: r.Addr(), Procs: 2, Timeout: 30 * time.Second})
	}()
	leader, err = r.Accept()
	<-done
	if err != nil || joinErr != nil {
		t.Fatalf("TCP mesh: accept %v, join %v", err, joinErr)
	}
	return leader, follower
}

// TestMeshTCP exercises the TCP resolver path end to end (the other
// tests use unix sockets).
func TestMeshTCP(t *testing.T) {
	leader, follower := joinTCP(t)
	defer leader.Close()
	defer follower.Close()
	if leader.Network() != "tcp" || follower.Network() != "tcp" {
		t.Fatalf("networks %q/%q, want tcp", leader.Network(), follower.Network())
	}
	recv := make(chan Frame, 1)
	follower.Attach(func(_ int, f Frame) { recv <- f })
	if err := send(leader, 1, Frame{Kind: KindBytes, Seq: 42}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-recv:
		if f.Seq != 42 {
			t.Fatalf("seq %d", f.Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frame never arrived over TCP")
	}
}

// writeCounter is a connection that counts the Write calls made on it —
// the flushes the link's writer issues, seen from outside the mesh.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// wiredPair is a two-proc mesh assembled by hand over one unix socket
// connection, so that the test can sit between proc 0's writer and the
// socket.
func wiredPair(t *testing.T) (a, b *Mesh, a2b *writeCounter) {
	t.Helper()
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "pair.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	a2b = &writeCounter{Conn: dialed}
	a, b = newMesh("unix", 0, 2), newMesh("unix", 1, 2)
	a.peers[1], b.peers[0] = newPeer(1, a2b), newPeer(0, accepted)
	a.start()
	b.start()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b, a2b
}

// TestMeshCoalescesBurst pins the flush policy on the schedule it was
// made for: on one P, 32 senders that are runnable at the same moment
// each queue one frame and then block, as the team leaders of a timestep
// do waiting for their reduction. The first send wakes the writer, which
// the scheduler runs next; flushing whenever the queue is momentarily
// empty gives one Write per frame there. The writer must instead let the
// runnable senders go first and carry their frames in a few Writes.
func TestMeshCoalescesBurst(t *testing.T) {
	const burst, size = 32, 416
	a, b, wire := wiredPair(t)
	arrived := make(chan uint64, burst)
	b.Attach(func(_ int, f Frame) { arrived <- f.Seq })
	send := func(seq uint64) {
		if err := send(a, 1, Frame{Kind: KindBytes, Src: 0, Dst: 1, Seq: seq, Payload: make([]byte, size)}, nil); err != nil {
			t.Error(err)
		}
	}
	await := func(n int) {
		t.Helper()
		for seen := 0; seen < n; seen++ {
			select {
			case <-arrived:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d frames arrived", seen, n)
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// One frame ahead of the burst, so that the writer is known to be up
	// and — once everything else on the one P has run until it blocks —
	// parked on its empty queue, which is the state a burst finds it in.
	send(0)
	await(1)
	runtime.Gosched()
	quiet := wire.writes.Load()

	release := make(chan struct{})
	var senders sync.WaitGroup
	for s := 1; s <= burst; s++ {
		senders.Add(1)
		go func(seq uint64) {
			defer senders.Done()
			<-release
			send(seq)
		}(uint64(s))
	}
	close(release)
	senders.Wait()
	await(burst)
	writes := wire.writes.Load() - quiet
	t.Logf("%d frames in %d writes", burst, writes)
	if writes > burst/4 {
		t.Errorf("%d frames queued by runnable senders took %d Writes, want at most %d", burst, writes, burst/4)
	}
	ls := a.LinkStats()[1]
	if ls.FramesOut != 1+burst || ls.Flushes != quiet+writes || ls.BytesOut != (1+burst)*size {
		t.Errorf("link counters %+v, want %d frames, %d payload bytes, %d flushes", ls, 1+burst, (1+burst)*size, quiet+writes)
	}
	if in := b.LinkStats()[0]; in.FramesIn != 1+burst || in.BytesIn != (1+burst)*size || in.Reads < 2 {
		t.Errorf("receiving link counters %+v, want %d frames, %d payload bytes, at least 2 reads", in, 1+burst, (1+burst)*size)
	}
}

// TestMeshLoneFrameFlushesPromptly is the other side of the policy: a
// frame with no company is not held back. With the process otherwise
// idle it goes out in a Write of its own at once; with every P kept busy
// by goroutines that never block it still leaves within the scheduler's
// fairness bound (the writer's one yield ends at the latest when the
// spinners are preempted), far inside the test's deadline.
func TestMeshLoneFrameFlushesPromptly(t *testing.T) {
	for _, busy := range []bool{false, true} {
		t.Run(fmt.Sprintf("busy=%t", busy), func(t *testing.T) {
			a, b, wire := wiredPair(t)
			arrived := make(chan struct{}, 1)
			b.Attach(func(int, Frame) { arrived <- struct{}{} })
			if busy {
				var stop atomic.Bool
				var spinners sync.WaitGroup
				defer spinners.Wait()
				defer stop.Store(true)
				for i := 0; i < runtime.GOMAXPROCS(0); i++ {
					spinners.Add(1)
					go func() {
						defer spinners.Done()
						for !stop.Load() {
						}
					}()
				}
			}
			t0 := time.Now()
			if err := send(a, 1, Frame{Kind: KindBytes, Seq: 1, Payload: []byte("alone")}, nil); err != nil {
				t.Fatal(err)
			}
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatal("a lone frame was still unflushed after 5 s")
			}
			t.Logf("lone frame delivered in %v", time.Since(t0))
			if w := wire.writes.Load(); w != 1 {
				t.Errorf("a lone frame took %d Writes, want 1", w)
			}
		})
	}
}

// benchMeshes runs a mesh benchmark over both transports.
func benchMeshes(b *testing.B, run func(b *testing.B, leader, follower *Mesh)) {
	b.Run("unix", func(b *testing.B) {
		meshes := joinAll(b, unixRendezvous(b), 2)
		defer meshes[0].Close()
		defer meshes[1].Close()
		run(b, meshes[0], meshes[1])
	})
	b.Run("tcp", func(b *testing.B) {
		leader, follower := joinTCP(b)
		defer leader.Close()
		defer follower.Close()
		run(b, leader, follower)
	})
}

// blockPayload is the payload of one ap-latency message: 8 particles.
var blockPayload = make([]byte, 8*52)

// BenchmarkMeshPingPong is the round trip of one lone frame each way:
// the latency the flush policy must not add to.
func BenchmarkMeshPingPong(b *testing.B) {
	benchMeshes(b, func(b *testing.B, leader, follower *Mesh) {
		back := make(chan struct{}, 1)
		leader.Attach(func(int, Frame) { back <- struct{}{} })
		follower.Attach(func(_ int, f Frame) { send(follower, 0, f, nil) })
		b.SetBytes(int64(2 * len(blockPayload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := send(leader, 1, Frame{Kind: KindParticles, Dst: 1, Payload: blockPayload}, nil); err != nil {
				b.Fatal(err)
			}
			<-back
		}
	})
}

// BenchmarkMeshBurst32 sends 32 frames back to back — a timestep's team
// broadcasts — and waits for the peer's acknowledgement of the last one;
// frames/flush is the coalescing the writer achieved.
func BenchmarkMeshBurst32(b *testing.B) {
	const burst = 32
	benchMeshes(b, func(b *testing.B, leader, follower *Mesh) {
		back := make(chan struct{}, 1)
		leader.Attach(func(int, Frame) { back <- struct{}{} })
		follower.Attach(func(_ int, f Frame) {
			if f.Seq == burst {
				send(follower, 0, Frame{Kind: KindBytes}, nil)
			}
		})
		before := leader.LinkStats()[1]
		b.SetBytes(int64(burst * len(blockPayload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := uint64(1); s <= burst; s++ {
				if err := send(leader, 1, Frame{Kind: KindParticles, Dst: 1, Seq: s, Payload: blockPayload}, nil); err != nil {
					b.Fatal(err)
				}
			}
			<-back
		}
		b.StopTimer()
		after := leader.LinkStats()[1]
		b.ReportMetric(float64(after.FramesOut-before.FramesOut)/float64(after.Flushes-before.Flushes), "frames/flush")
	})
}
