// Package net is the socket transport under the comm substrate: it
// moves the same messages the in-process mailboxes carry, but between
// OS processes over TCP or unix-domain sockets, as length-prefixed
// frames. A Mesh is one process's membership in a fully connected group
// of processes, formed through a rendezvous address; each peer link has
// a dedicated writer goroutine (a send returns once its frame is in the
// link's write buffer, and the writer hands what has gathered there to
// the socket in one write) and a dedicated reader goroutine (frames are
// routed to an attachable sink without blocking the link).
//
// The package is deliberately payload-agnostic: a Frame carries the
// message envelope (kind, world ranks, communicator id, tag, sequence
// number, team header) and an opaque payload. Encoding typed payloads
// into the 52-byte particle wire format — and reconstructing the
// accounted byte size on the far side — is the comm package's job, so
// accounting fidelity lives next to the accounting.
package net

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Data frame kinds are comm's payloadKind values — the socket path
// round-trips a message without renumbering its representation.
// Control kinds from KindHello up drive mesh formation and the
// end-of-run result exchange.
const (
	KindBytes         uint8 = 0 // encoded byte payload
	KindParticles     uint8 = 1 // 52-byte wire-format particles
	KindTeamParticles uint8 = 2 // particles with a source-team header
	KindF64s          uint8 = 3 // packed float64s

	KindHello   uint8 = 0x10 // peer identification during mesh formation
	KindWelcome uint8 = 0x11 // rendezvous reply: id assignment + peer addresses
	KindFinish  uint8 = 0x12 // end of run: follower summary to proc 0
	KindResult  uint8 = 0x13 // end of run: merged result from proc 0
	KindAbort   uint8 = 0x14 // failure notification; severs the mesh
	KindBye     uint8 = 0x15 // orderly departure: the peer closed its mesh cleanly
)

// IsData reports whether kind is a data-plane frame (a comm message)
// rather than a control frame.
func IsData(kind uint8) bool { return kind < KindHello }

func validKind(kind uint8) bool { return kind <= KindF64s || (kind >= KindHello && kind <= KindBye) }

// Frame is one unit on the wire. Src and Dst are world ranks for data
// frames and proc ids for control frames.
type Frame struct {
	Kind    uint8
	Src     uint32
	Dst     uint32
	Comm    uint64 // communicator id (data frames)
	Tag     int64  // message tag (data frames)
	Seq     uint64 // per-(src,dst) sequence number (data frames)
	Hdr     uint32 // source-team header of KindTeamParticles
	Payload []byte
}

// Wire layout: a 4-byte big-endian length (covering everything after
// itself), then the fixed header, then the payload.
const (
	headerSize = 1 + 4 + 4 + 8 + 8 + 8 + 4 // kind, src, dst, comm, tag, seq, hdr

	// MaxPayload bounds a frame's payload. Anything larger is a corrupt
	// or hostile length prefix; the decoder rejects it before believing
	// the length, so garbage on the wire can never drive a huge
	// allocation.
	MaxPayload = 1 << 28

	maxFrame = headerSize + MaxPayload

	// FrameOverhead is what AppendHeader writes ahead of a payload: the
	// length prefix and the fixed header.
	FrameOverhead = 4 + headerSize
)

// ErrFrameTooLarge is returned when a length prefix exceeds the frame
// bound; ErrFrameCorrupt when the framing itself is malformed.
var (
	ErrFrameTooLarge = errors.New("net: frame exceeds size bound")
	ErrFrameCorrupt  = errors.New("net: corrupt frame")
)

// AppendHeader appends f's length slot and fixed header — everything but
// the payload, which the caller appends after it (f.Payload is ignored).
// The length slot is left zero: sealFrame fills it in once the payload
// is in place, so a sender that encodes a typed payload straight into
// the frame buffer never has to know its size up front.
func AppendHeader(dst []byte, f *Frame) []byte {
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, f.Kind)
	dst = binary.BigEndian.AppendUint32(dst, f.Src)
	dst = binary.BigEndian.AppendUint32(dst, f.Dst)
	dst = binary.BigEndian.AppendUint64(dst, f.Comm)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.Tag))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	return binary.BigEndian.AppendUint32(dst, f.Hdr)
}

// sealFrame writes the length prefix of the single frame occupying buf
// (an AppendHeader followed by the payload). The only failure mode is an
// oversized payload.
func sealFrame(buf []byte) error {
	n := len(buf) - 4
	if n < headerSize {
		return fmt.Errorf("%w: %d-byte buffer holds no frame header", ErrFrameCorrupt, len(buf))
	}
	if n > maxFrame {
		return fmt.Errorf("%w: payload %d > %d", ErrFrameTooLarge, n-headerSize, MaxPayload)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	return nil
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. The only failure mode is an oversized payload.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return dst, fmt.Errorf("%w: payload %d > %d", ErrFrameTooLarge, len(f.Payload), MaxPayload)
	}
	start := len(dst)
	dst = append(AppendHeader(dst, f), f.Payload...)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// readHeader consumes the next frame's length prefix and fixed header
// and returns the frame without its payload plus the payload's length.
// It peeks instead of copying into a local array (which would escape
// through the io.Reader interface and cost two allocations a frame), so
// br's buffer must hold at least the 41 prefix+header bytes — bufio's
// default of 4096 does. Truncated, oversized or otherwise malformed
// input returns an error, never a panic.
func readHeader(br *bufio.Reader) (Frame, int, error) {
	b, err := br.Peek(4)
	if err != nil {
		if len(b) == 0 && err == io.EOF {
			return Frame{}, 0, io.EOF // the stream ended between frames
		}
		return Frame{}, 0, truncated(err)
	}
	total := int(binary.BigEndian.Uint32(b))
	if total < headerSize {
		return Frame{}, 0, fmt.Errorf("%w: frame length %d below header size %d", ErrFrameCorrupt, total, headerSize)
	}
	if total > maxFrame {
		return Frame{}, 0, fmt.Errorf("%w: frame length %d > %d", ErrFrameTooLarge, total, maxFrame)
	}
	b, err = br.Peek(4 + headerSize)
	if err != nil {
		return Frame{}, 0, truncated(err)
	}
	hdr := b[4:]
	f := Frame{
		Kind: hdr[0],
		Src:  binary.BigEndian.Uint32(hdr[1:5]),
		Dst:  binary.BigEndian.Uint32(hdr[5:9]),
		Comm: binary.BigEndian.Uint64(hdr[9:17]),
		Tag:  int64(binary.BigEndian.Uint64(hdr[17:25])),
		Seq:  binary.BigEndian.Uint64(hdr[25:33]),
		Hdr:  binary.BigEndian.Uint32(hdr[33:37]),
	}
	if !validKind(f.Kind) {
		return Frame{}, 0, fmt.Errorf("%w: unknown frame kind %#x", ErrFrameCorrupt, f.Kind)
	}
	br.Discard(4 + headerSize) // cannot fail: the bytes were just peeked
	return f, total - headerSize, nil
}

// ReadFrame decodes the next frame from the stream into a payload the
// caller owns. Truncated, oversized or otherwise malformed input returns
// an error — never a panic, and never an allocation beyond the data
// actually present plus one read chunk (a lying length prefix cannot
// reserve memory ahead of the bytes backing it). The mesh's read loops
// use a Decoder instead, which lends the payload out of its buffers.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	f, n, err := readHeader(br)
	if err != nil {
		return Frame{}, err
	}
	if f.Payload, err = readPayload(br, nil, n); err != nil {
		return Frame{}, truncated(err)
	}
	return f, nil
}

// Decoder reads the frames of one connection without allocating per
// frame: Next lends each payload out of storage the decoder owns.
//
// Buffer ownership: the Payload of a frame returned by Next aliases
// either the connection's read buffer (payloads that fit in it, which is
// every message of the timestep loops) or the decoder's spill buffer
// (larger ones), and is valid only until the following Next. A consumer
// decodes typed payloads straight out of it and copies whatever bytes it
// needs to keep.
type Decoder struct {
	br    *bufio.Reader
	lent  int    // bytes of br's buffer the last frame's payload still occupies
	spill []byte // payloads larger than br's buffer; grown by bounded chunks, reused
}

// spillKeep bounds the spill buffer a Decoder retains between frames, so
// one huge frame (an end-of-run result, say) does not pin its size for
// the life of the connection.
const spillKeep = 4 << 20

// NewDecoder returns a decoder over br, whose buffer must hold at least
// a frame header (see readHeader).
func NewDecoder(br *bufio.Reader) *Decoder { return &Decoder{br: br} }

// Next decodes the next frame under ReadFrame's contract — errors, never
// panics, allocation bounded by the bytes present — except that the
// payload is lent, not owned (see Decoder).
func (d *Decoder) Next() (Frame, error) {
	d.br.Discard(d.lent) // cannot fail: those bytes were peeked by the previous call
	d.lent = 0
	if cap(d.spill) > spillKeep {
		d.spill = nil
	}
	f, n, err := readHeader(d.br)
	if err != nil || n == 0 {
		return f, err
	}
	if n <= d.br.Size() {
		if f.Payload, err = d.br.Peek(n); err != nil {
			return Frame{}, truncated(err)
		}
		d.lent = n
		return f, nil
	}
	if d.spill, err = readPayload(d.br, d.spill[:0], n); err != nil {
		return Frame{}, truncated(err)
	}
	f.Payload = d.spill
	return f, nil
}

// readPayload reads exactly n payload bytes into buf[:0], growing it one
// bounded chunk at a time so the allocation tracks the data that
// actually arrives rather than the advertised length.
func readPayload(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	const chunk = 64 << 10
	for len(buf) < n {
		k := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(br, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// truncated maps a mid-frame EOF onto ErrUnexpectedEOF so callers can
// distinguish "stream ended between frames" (io.EOF from the length
// read) from "stream ended inside a frame".
func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
