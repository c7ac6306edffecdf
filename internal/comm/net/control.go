package net

// Control payloads. Every control frame's payload is a fixed
// little-endian layout under protocolVersion; the rendezvous handshake's
// two are defined here, the end-of-run exchange's in the comm package,
// and both are decoded through a Cursor.
//
//	hello:   version u32 | addr
//	welcome: version u32 | id u32 | procs u32 | procs × addr
//
// An addr is a u32 byte length and that many bytes. A follower's hello
// carries its data-listener address; proc 0's welcome assigns the
// follower's id and lists every proc's address, by id.

import (
	"encoding/binary"
	"fmt"
)

// protocolVersion numbers the control payloads' layouts. Version 1 was
// JSON; a peer still speaking it is refused with an error naming both.
const protocolVersion = 2

type hello struct {
	Addr string // the sender's data-listener address
}

type welcome struct {
	ID    int
	Addrs []string // data-listener address of every proc, by id
}

func appendAddr(dst []byte, a string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(a))), a...)
}

func encodeHello(h hello) []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, 8+len(h.Addr)), protocolVersion)
	return appendAddr(b, h.Addr)
}

func encodeWelcome(w welcome) []byte {
	n := 12
	for _, a := range w.Addrs {
		n += 4 + len(a)
	}
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, n), protocolVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(w.ID))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(w.Addrs)))
	for _, a := range w.Addrs {
		b = appendAddr(b, a)
	}
	return b
}

// readVersion reads a handshake payload's version. A version-1 payload
// is a JSON object, so its first byte is '{'.
func readVersion(c *Cursor) {
	if len(c.b) > 0 && c.b[0] == '{' {
		c.Fail("protocol version 1 (JSON), want version %d", protocolVersion)
		return
	}
	if v := c.U32("version"); v != protocolVersion && c.Err() == nil {
		c.Fail("protocol version %d, want version %d", v, protocolVersion)
	}
}

// readAddr reads one non-empty address.
func readAddr(c *Cursor, what string) string {
	a := c.Bytes(int(c.U32(what+" length")), what)
	if len(a) == 0 && c.Err() == nil {
		c.Fail("empty %s", what)
	}
	return string(a)
}

func decodeHello(b []byte) (hello, error) {
	c := NewCursor(b)
	readVersion(c)
	h := hello{Addr: readAddr(c, "addr")}
	if err := c.Finish(); err != nil {
		return hello{}, fmt.Errorf("net: rendezvous hello: %w", err)
	}
	return h, nil
}

// decodeWelcome decodes the welcome of a mesh of procs processes: it
// must assign an id in [1, procs) and list procs non-empty addresses.
func decodeWelcome(b []byte, procs int) (welcome, error) {
	c := NewCursor(b)
	readVersion(c)
	id, n := c.U32("id"), c.U32("proc count")
	switch {
	case c.Err() != nil:
	case uint64(n) != uint64(procs):
		c.Fail("proc count %d, want %d", n, procs)
	case id < 1 || uint64(id) >= uint64(procs):
		c.Fail("id %d outside [1, %d)", id, procs)
	}
	var w welcome
	if c.Err() == nil {
		w = welcome{ID: int(id), Addrs: make([]string, procs)}
		for i := range w.Addrs {
			w.Addrs[i] = readAddr(c, fmt.Sprintf("addr of proc %d", i))
		}
	}
	if err := c.Finish(); err != nil {
		return welcome{}, fmt.Errorf("net: rendezvous welcome: %w", err)
	}
	return w, nil
}

// Cursor decodes a control payload's fixed little-endian fields. Reads
// are bounds-checked and sticky: the first read past the end, or the
// first value its decoder rejects (Fail), records an error naming the
// field, and every read after it returns zero. A decoder therefore reads
// its whole layout and checks once, and no input can make it panic or
// allocate beyond the bytes present (Count bounds every claimed count by
// them).
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Bytes lends the next n bytes.
func (c *Cursor) Bytes(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.err = fmt.Errorf("truncated %s: %d bytes, %d left", what, n, len(c.b))
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32(what string) uint32 {
	if b := c.Bytes(4, what); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64(what string) uint64 {
	if b := c.Bytes(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian int64.
func (c *Cursor) I64(what string) int64 { return int64(c.U64(what)) }

// Count reads a u32 element count and checks that that many elements of
// at least size bytes each fit in what is left.
func (c *Cursor) Count(size int, what string) int {
	n := c.U32(what)
	if c.err == nil && uint64(n)*uint64(size) > uint64(len(c.b)) {
		c.err = fmt.Errorf("%s %d: needs %d bytes, %d left", what, n, uint64(n)*uint64(size), len(c.b))
		return 0
	}
	return int(n)
}

// Len returns the number of bytes left.
func (c *Cursor) Len() int { return len(c.b) }

// Fail records a rejected value unless an error is already recorded.
func (c *Cursor) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first error recorded.
func (c *Cursor) Err() error { return c.err }

// Finish returns the first error recorded, or an error if bytes are
// left over: a payload is consumed exactly.
func (c *Cursor) Finish() error {
	if c.err == nil && len(c.b) > 0 {
		c.err = fmt.Errorf("%d trailing bytes", len(c.b))
	}
	return c.err
}
