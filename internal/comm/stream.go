package comm

import "sync/atomic"

// stream is the in-process mailbox of one src→dst pair: a bounded
// single-producer, single-consumer ring of messages. The producer is
// whoever feeds the pair — the rank src, or for a socket arrival the
// mesh reader and the deferred deliveries chained behind it (inject),
// one at a time — and the consumer is the rank dst.
//
// A hop that finds room, or a message, costs one slot copy and one
// atomic store of tail (put) or head (get); a channel operation happens
// only where a side parks. Each side parks on a bell of its own, a
// channel of capacity one that the other side rings after it has moved
// its index. The rings are paired with the parking side's flag in the
// Dekker pattern: the consumer sets recvWaiting and then re-reads tail
// before it parks on recvBell, the producer stores tail and then reads
// recvWaiting before it decides whether to ring — sync/atomic is
// sequentially consistent, so at least one of them sees the other's
// store and no wake-up is lost. A full ring mirrors this with
// sendWaiting and sendBell. A bell may hold a stale ring; a woken side
// therefore re-checks before it believes it.
//
// A failed run marks every local stream aborted and rings its receive
// bell (Runtime.failLocal); a stream created afterwards is born aborted.
// A receive that finds its stream empty and aborted reports it, after
// the messages delivered before the failure have been taken in order. A
// producer parked on a full ring, or on a rendezvous, selects on the
// run's abort channel as well.
type stream struct {
	// Consumer side: written by the receiving rank only.
	head        atomic.Uint64 // messages taken so far
	recvWaiting atomic.Bool   // the consumer is about to park on recvBell
	_           [cacheLine]byte

	// Producer side: written by the feeding goroutine only.
	tail        atomic.Uint64 // messages put so far
	sendWaiting atomic.Bool   // the producer is about to park on sendBell
	_           [cacheLine]byte

	slots      []message // a power-of-two ring, indexed by head and tail
	mask       uint64
	room       uint64 // messages the ring may hold: the capacity, 1 for a rendezvous
	rendezvous bool   // a send returns only once its message is taken
	aborted    atomic.Bool
	recvBell   chan struct{}
	sendBell   chan struct{}
	// yield, when non-nil, runs between the steps of the put and get
	// protocols: tests hand in a seeded runtime.Gosched to widen the
	// windows a lost wake-up would need.
	yield func()
}

// cacheLine separates the consumer's and the producer's words of a
// stream, so that each side's stores do not invalidate the other's line.
const cacheLine = 64

// newStream makes a stream of the given capacity; 0 makes a rendezvous,
// a one-slot ring whose sender waits until the message is taken.
func newStream(capacity int) *stream {
	room := max(capacity, 1)
	n := 1
	for n < room {
		n <<= 1
	}
	return &stream{
		slots:      make([]message, n),
		mask:       uint64(n - 1),
		room:       uint64(room),
		rendezvous: capacity == 0,
		recvBell:   make(chan struct{}, 1),
		sendBell:   make(chan struct{}, 1),
	}
}

// depth is the number of messages in the ring.
func (s *stream) depth() int { return int(s.tail.Load() - s.head.Load()) }

func (s *stream) ready() bool   { return s.head.Load() != s.tail.Load() }
func (s *stream) hasRoom() bool { return s.tail.Load()-s.head.Load() < s.room }

func (s *stream) pause() {
	if s.yield != nil {
		s.yield()
	}
}

// ring wakes the side parked on bell, or leaves the wake-up for it to
// find when it parks; it never blocks.
func ring(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}

// tryPut appends *m to the ring if there is room and reports whether it
// did. Producer only.
func (s *stream) tryPut(m *message) bool {
	t := s.tail.Load()
	if t-s.head.Load() >= s.room {
		return false
	}
	s.slots[t&s.mask] = *m
	s.pause()
	s.tail.Store(t + 1)
	s.pause()
	if s.recvWaiting.Load() {
		ring(s.recvBell)
	}
	return true
}

// put appends *m to the ring, parking while it is full; it reports false
// if abort is closed first. Producer only.
func (s *stream) put(m *message, abort <-chan struct{}) bool {
	for !s.tryPut(m) {
		if !s.waitBelow(s.room, abort) {
			return false
		}
	}
	return true
}

// settle returns once every message put so far has been taken, on a
// rendezvous stream; elsewhere at once. It reports false if abort is
// closed first. Producer only.
func (s *stream) settle(abort <-chan struct{}) bool {
	return !s.rendezvous || s.waitBelow(1, abort)
}

// waitBelow parks the producer until the ring holds fewer than n
// messages, or abort is closed (false).
func (s *stream) waitBelow(n uint64, abort <-chan struct{}) bool {
	for s.tail.Load()-s.head.Load() >= n {
		s.pause()
		s.sendWaiting.Store(true)
		s.pause()
		if s.tail.Load()-s.head.Load() < n {
			s.sendWaiting.Store(false)
			break
		}
		select {
		case <-s.sendBell:
		case <-abort:
			s.sendWaiting.Store(false)
			return false
		}
		s.sendWaiting.Store(false)
	}
	return true
}

// tryGet takes the oldest message into *m if there is one and reports
// whether it did. The slot is zeroed, so the ring keeps no payload
// alive. Consumer only.
func (s *stream) tryGet(m *message) bool {
	h := s.head.Load()
	if h == s.tail.Load() {
		return false
	}
	slot := &s.slots[h&s.mask]
	*m = *slot
	*slot = message{}
	s.pause()
	s.head.Store(h + 1)
	s.pause()
	if s.sendWaiting.Load() {
		ring(s.sendBell)
	}
	return true
}

// get takes the oldest message into *m, parking while the ring is
// empty. It reports false when the ring is empty and the stream aborted.
// Consumer only.
func (s *stream) get(m *message) bool {
	for !s.tryGet(m) {
		s.pause()
		s.recvWaiting.Store(true)
		s.pause()
		if s.ready() {
			s.recvWaiting.Store(false)
			continue
		}
		// aborted before the re-check of tail: a message delivered before
		// the failure is then seen and taken first.
		if s.aborted.Load() && !s.ready() {
			s.recvWaiting.Store(false)
			return false
		}
		<-s.recvBell
		s.recvWaiting.Store(false)
	}
	return true
}

// abort marks the stream aborted and wakes its consumer. Any goroutine.
func (s *stream) abort() {
	s.aborted.Store(true)
	ring(s.recvBell)
}

// awaitEither parks an exchange whose send and receive are both pending
// until out has room or in holds a message, offering both bells at once
// so that neither half's progress is missed. It reports false if abort
// is closed while neither half can move. It must only be called while
// both halves are pending: the condition of a completed half may stay
// true, and re-checking it would spin instead of parking.
func awaitEither(out, in *stream, abort <-chan struct{}) bool {
	out.sendWaiting.Store(true)
	in.recvWaiting.Store(true)
	out.pause()
	ok := true
	if !out.hasRoom() && !in.ready() {
		select {
		case <-out.sendBell:
		case <-in.recvBell:
		case <-abort:
			ok = out.hasRoom() || in.ready()
		}
	}
	out.sendWaiting.Store(false)
	in.recvWaiting.Store(false)
	return ok
}
