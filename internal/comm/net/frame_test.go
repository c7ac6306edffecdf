package net

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// readOne decodes the first frame of data twice — with ReadFrame, which
// hands out an owned payload, and with a Decoder, which lends it — and
// requires the two to agree on everything, the error included.
func readOne(t testing.TB, data []byte) (Frame, error) {
	t.Helper()
	owned, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
	lent, lerr := NewDecoder(bufio.NewReader(bytes.NewReader(data))).Next()
	if (err == nil) != (lerr == nil) || (err != nil && err.Error() != lerr.Error()) {
		t.Fatalf("ReadFrame err %v, Decoder err %v", err, lerr)
	}
	if err == nil && !sameFrame(owned, lent) {
		t.Fatalf("ReadFrame %+v, Decoder %+v", owned, lent)
	}
	return owned, err
}

func sameFrame(a, b Frame) bool {
	return a.Kind == b.Kind && a.Src == b.Src && a.Dst == b.Dst && a.Comm == b.Comm &&
		a.Tag == b.Tag && a.Seq == b.Seq && a.Hdr == b.Hdr && bytes.Equal(a.Payload, b.Payload)
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Kind: KindBytes, Src: 3, Dst: 0, Comm: 0x9e3779b97f4a7c15, Tag: 42, Seq: 7, Payload: []byte("hello")},
		{Kind: KindParticles, Src: 1, Dst: 2, Tag: -1, Seq: 1 << 40, Payload: bytes.Repeat([]byte{0xab}, 52)},
		{Kind: KindTeamParticles, Hdr: 9, Payload: []byte{1}},
		{Kind: KindF64s, Payload: nil},
		{Kind: KindHello, Src: 4, Payload: []byte(`{"v":1}`)},
		{Kind: KindAbort},
	}
	var buf []byte
	for _, f := range cases {
		var err error
		buf, err = AppendFrame(buf, &f)
		if err != nil {
			t.Fatalf("AppendFrame(%+v): %v", f, err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range cases {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameFrame(got, want) {
			t.Errorf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestDecoderLendsPayloads runs a stream through a Decoder whose read
// buffer is smaller than some of the payloads: small ones are lent out
// of the read buffer, large ones out of the spill buffer, every frame
// reads back exactly while it is current, and a lent payload is not
// expected to survive the next call.
func TestDecoderLendsPayloads(t *testing.T) {
	pattern := func(n int, salt byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i)*7 + salt
		}
		return p
	}
	cases := []Frame{
		{Kind: KindParticles, Src: 1, Dst: 2, Seq: 1, Payload: pattern(416, 1)},
		{Kind: KindF64s, Seq: 2},
		{Kind: KindBytes, Seq: 3, Payload: pattern(3*4096+5, 3)}, // spills
		{Kind: KindParticles, Seq: 4, Payload: pattern(4096, 4)}, // exactly the buffer
		{Kind: KindResult, Seq: 5, Payload: pattern(9000, 5)},    // spills again, reusing
		{Kind: KindBytes, Seq: 6, Payload: pattern(1, 6)},
	}
	var stream []byte
	for i := range cases {
		var err error
		if stream, err = AppendFrame(stream, &cases[i]); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDecoder(bufio.NewReaderSize(bytes.NewReader(stream), 4096))
	for i, want := range cases {
		got, err := d.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameFrame(got, want) {
			t.Errorf("frame %d: got kind %#x seq %d with %d payload bytes, want %#x/%d/%d (or payload differs)",
				i, got.Kind, got.Seq, len(got.Payload), want.Kind, want.Seq, len(want.Payload))
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestDecoderSteadyStateAllocFree: a stream of message-sized frames
// costs no allocation at all to decode.
func TestDecoderSteadyStateAllocFree(t *testing.T) {
	f := Frame{Kind: KindParticles, Src: 1, Dst: 33, Tag: 7, Payload: make([]byte, 416)}
	var stream []byte
	for i := 0; i < 64; i++ {
		f.Seq++
		stream, _ = AppendFrame(stream, &f)
	}
	var rd bytes.Reader
	br := bufio.NewReaderSize(&rd, linkBufSize)
	d := NewDecoder(br)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(stream)
		br.Reset(&rd)
		*d = Decoder{br: br}
		for i := 0; i < 64; i++ {
			if got, err := d.Next(); err != nil || len(got.Payload) != 416 {
				t.Fatalf("frame %d: %d payload bytes, err %v", i, len(got.Payload), err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("decoding 64 frames allocated %.0f objects, want 0", allocs)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(maxFrame+1))
	buf = append(buf, make([]byte, 64)...)
	_, err := readOne(t, buf)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsShortLength(t *testing.T) {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(headerSize-1))
	buf = append(buf, make([]byte, headerSize)...)
	_, err := readOne(t, buf)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("err = %v, want ErrFrameCorrupt", err)
	}
}

func TestReadFrameRejectsUnknownKind(t *testing.T) {
	f := Frame{Kind: KindBytes, Payload: []byte("x")}
	buf, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	buf[4] = 0x7f // corrupt the kind byte (after the 4-byte length)
	_, err = readOne(t, buf)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("err = %v, want ErrFrameCorrupt", err)
	}
}

func TestReadFrameTruncatedIsUnexpectedEOF(t *testing.T) {
	f := Frame{Kind: KindBytes, Seq: 1, Payload: bytes.Repeat([]byte{1}, 100)}
	buf, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must yield ErrUnexpectedEOF (mid-frame), except
	// the empty prefix, which is a clean io.EOF (between frames).
	for cut := 1; cut < len(buf); cut++ {
		_, err := readOne(t, buf[:cut])
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := readOne(t, nil); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestReadFrameLyingLengthBoundsAllocation feeds a frame whose length
// prefix promises far more payload than the stream holds: the decoder
// must fail without allocating the advertised size.
func TestReadFrameLyingLengthBoundsAllocation(t *testing.T) {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(headerSize+MaxPayload)) // maximal legal claim
	buf = append(buf, KindBytes)
	buf = append(buf, make([]byte, headerSize-1)...) // rest of header, zeros
	buf = append(buf, make([]byte, 1024)...)         // only 1 KiB of actual payload
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := readOne(t, buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	runtime.ReadMemStats(&after)
	// Both decoders grow the payload by 64 KiB chunks as bytes arrive; a
	// few read buffers and one chunk each, never the claimed 256 MiB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a lying length prefix made the decoders allocate %d bytes", grew)
	}
}

func TestAppendFrameRejectsOversizedPayload(t *testing.T) {
	f := Frame{Kind: KindBytes, Payload: make([]byte, MaxPayload+1)}
	if _, err := AppendFrame(nil, &f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// FuzzReadFrame asserts the safety contract of both decoders on
// arbitrary bytes: each returns (frame, nil) or an error — never panics —
// the two agree, and a successfully decoded frame re-encodes to the
// exact bytes consumed.
func FuzzReadFrame(f *testing.F) {
	seed, _ := AppendFrame(nil, &Frame{Kind: KindBytes, Src: 1, Dst: 2, Comm: 3, Tag: 4, Seq: 5, Payload: []byte("seed")})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0}, headerSize+4))
	trunc, _ := AppendFrame(nil, &Frame{Kind: KindParticles, Payload: make([]byte, 52)})
	f.Add(trunc[:len(trunc)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readOne(t, data)
		if err != nil {
			return
		}
		reenc, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(reenc, data[:len(reenc)]) {
			t.Fatalf("re-encode mismatch:\n got % x\nwant % x", reenc, data[:len(reenc)])
		}
	})
}
