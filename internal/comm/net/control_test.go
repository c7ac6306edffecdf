package net

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHandshakeGoldenBytes pins the version-2 layouts of the handshake
// payloads byte for byte (see control.go).
func TestHandshakeGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"hello", encodeHello(hello{Addr: "a"}),
			"02000000" + "01000000" + "61"},
		{"welcome", encodeWelcome(welcome{ID: 1, Addrs: []string{"a", "bc"}}),
			"02000000" + "01000000" + "02000000" + "01000000" + "61" + "02000000" + "6263"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s encodes to %s, want %s", tc.name, got, tc.want)
		}
	}
	if h, err := decodeHello(encodeHello(hello{Addr: "a"})); err != nil || h.Addr != "a" {
		t.Errorf("hello round trip: %+v, %v", h, err)
	}
	if w, err := decodeWelcome(encodeWelcome(welcome{ID: 1, Addrs: []string{"a", "bc"}}), 2); err != nil || w.ID != 1 || len(w.Addrs) != 2 || w.Addrs[1] != "bc" {
		t.Errorf("welcome round trip: %+v, %v", w, err)
	}
}

// shortDir returns a fresh directory for unix sockets, whose paths are
// capped near 108 bytes (t.TempDir spells out the test's name).
func shortDir(t *testing.T) string {
	dir, err := os.MkdirTemp("", "hs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// TestEnrollRejectsForgedWelcome: a joining proc given a welcome with an
// id outside [1, procs), the wrong number of addresses, an empty one,
// stray bytes or the JSON of protocol version 1 returns promptly with an
// error naming the field — it neither panics nor waits out the
// formation deadline. Proc 0 is played by hand and lists dialable
// addresses.
func TestEnrollRejectsForgedWelcome(t *testing.T) {
	dir := shortDir(t)
	for i, tc := range []struct {
		name    string
		welcome func(addr string) []byte
		field   string
	}{
		{"id past procs", func(a string) []byte { return encodeWelcome(welcome{ID: 5, Addrs: []string{a, a}}) }, "id 5 outside [1, 2)"},
		{"id 0", func(a string) []byte { return encodeWelcome(welcome{ID: 0, Addrs: []string{a, a}}) }, "id 0 outside [1, 2)"},
		{"id -1", func(a string) []byte { return encodeWelcome(welcome{ID: -1, Addrs: []string{a, a}}) }, "id 4294967295 outside [1, 2)"},
		{"one address for two procs", func(a string) []byte { return encodeWelcome(welcome{ID: 1, Addrs: []string{a}}) }, "proc count 1, want 2"},
		{"empty address", func(a string) []byte { return encodeWelcome(welcome{ID: 1, Addrs: []string{a, ""}}) }, "empty addr of proc 1"},
		{"address cut short", func(a string) []byte {
			b := encodeWelcome(welcome{ID: 1, Addrs: []string{a, a}})
			return b[:len(b)-1]
		}, "truncated addr of proc 1"},
		{"trailing byte", func(a string) []byte { return append(encodeWelcome(welcome{ID: 1, Addrs: []string{a, a}}), 0) }, "1 trailing bytes"},
		{"protocol version 1", func(a string) []byte { return []byte(`{"v":1,"id":1,"addrs":["` + a + `","` + a + `"]}`) }, "protocol version 1 (JSON), want version 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, string(rune('a'+i)))
			ln, err := net.Listen("unix", path)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, err := ReadFrame(bufio.NewReader(conn)); err == nil {
					writeFrame(conn, &Frame{Kind: KindWelcome, Payload: tc.welcome(path)})
				}
			}()
			start := time.Now()
			m, err := Join(Config{Rendezvous: "unix:" + path, Procs: 2, Timeout: 30 * time.Second})
			if err == nil {
				m.Close()
				t.Fatal("joined a mesh on a forged welcome")
			}
			if !strings.Contains(err.Error(), "welcome: "+tc.field) {
				t.Errorf("error %q does not name %q", err, tc.field)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("the forged welcome took %v to refuse", d)
			}
		})
	}
}

// TestRendezvousRejectsBadHello: proc 0 refuses a hello from a peer that
// speaks protocol version 1 (JSON) or another version, or that gives no
// address, with an error naming the versions or the field.
func TestRendezvousRejectsBadHello(t *testing.T) {
	dir := shortDir(t)
	for i, tc := range []struct {
		name  string
		hello []byte
		want  string
	}{
		{"protocol version 1", []byte(`{"v":1,"addr":"/tmp/x"}`), "hello: protocol version 1 (JSON), want version 2"},
		{"protocol version 3", append([]byte{3, 0, 0, 0}, encodeHello(hello{Addr: "x"})[4:]...), "hello: protocol version 3, want version 2"},
		{"empty address", encodeHello(hello{}), "hello: empty addr"},
		{"no address", encodeHello(hello{Addr: "x"})[:4], "hello: truncated addr length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Listen(Config{Rendezvous: "unix:" + filepath.Join(dir, string(rune('a'+i))), Procs: 2, Timeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				network, addr := resolveNetwork(r.Addr())
				conn, err := net.Dial(network, addr)
				if err != nil {
					return
				}
				defer conn.Close()
				writeFrame(conn, &Frame{Kind: KindHello, Payload: tc.hello})
				conn.Read(make([]byte, 1)) // until proc 0 hangs up
			}()
			m, err := r.Accept()
			if err == nil {
				m.Close()
				t.Fatal("formed a mesh on a bad hello")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// FuzzHello: arbitrary bytes decode to an error or to a hello that
// re-encodes to the same bytes.
func FuzzHello(f *testing.F) {
	f.Add(encodeHello(hello{Addr: "127.0.0.1:4242"}))
	f.Add(encodeHello(hello{}))
	f.Add([]byte(`{"v":1,"addr":"x"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		if again := encodeHello(h); !bytes.Equal(again, data) {
			t.Fatalf("hello %+v re-encodes to % x, decoded from % x", h, again, data)
		}
	})
}

// FuzzWelcome: arbitrary bytes decode, for a mesh of procs processes, to
// an error or to a welcome with an id in [1, procs) and procs non-empty
// addresses that re-encodes to the same bytes.
func FuzzWelcome(f *testing.F) {
	f.Add(encodeWelcome(welcome{ID: 1, Addrs: []string{"a", "bc"}}), uint8(2))
	f.Add(encodeWelcome(welcome{ID: 2, Addrs: []string{"/tmp/r.d1.1", "/tmp/r.d2.1", "/tmp/r.d3.1"}}), uint8(3))
	f.Add(encodeWelcome(welcome{ID: 5, Addrs: []string{"a", "b"}}), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, procs uint8) {
		w, err := decodeWelcome(data, int(procs))
		if err != nil {
			return
		}
		if w.ID < 1 || w.ID >= int(procs) || len(w.Addrs) != int(procs) {
			t.Fatalf("accepted id %d and %d addresses for %d procs", w.ID, len(w.Addrs), procs)
		}
		for i, a := range w.Addrs {
			if a == "" {
				t.Fatalf("accepted an empty address for proc %d", i)
			}
		}
		if again := encodeWelcome(w); !bytes.Equal(again, data) {
			t.Fatalf("welcome %+v re-encodes to % x, decoded from % x", w, again, data)
		}
	})
}
