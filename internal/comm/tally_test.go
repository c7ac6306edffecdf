package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
)

// TestTalliesRebuildTheMatrix counts one random message stream twice —
// into a dense matrix, and into per-rank tallies the way a follower's
// ranks do (the sender's tally takes the send, the receiver's the
// receipt) — and requires the tallies, merged, encoded, decoded and
// added to an empty matrix, to reproduce the dense one. One rank talks
// to enough peers to outgrow the linear scan.
func TestTalliesRebuildTheMatrix(t *testing.T) {
	const phases, ranks = 5, 40
	rng := rand.New(rand.NewSource(1))
	dense := obs.NewCommMatrix(phases, ranks)
	tallies := make([]tally, ranks)
	for i := 0; i < 20000; i++ {
		src, dst := rng.Intn(ranks), rng.Intn(ranks)
		if i%2 == 0 {
			src = 3 // a hub, so its tally grows past tallyScan cells
		}
		sendPhase, recvPhase, bytes := rng.Intn(phases), rng.Intn(phases), rng.Intn(1<<20)
		dense.CountSend(sendPhase, src, dst, bytes)
		dense.CountRecv(recvPhase, src, dst, bytes)
		c := tallies[src].at(sendPhase, src, dst)
		c.SentMsgs++
		c.SentBytes += int64(bytes)
		c = tallies[dst].at(recvPhase, src, dst)
		c.RecvMsgs++
		c.RecvBytes += int64(bytes)
	}
	if tallies[3].index == nil || tallies[7].index != nil && len(tallies[7].cells) <= tallyScan {
		t.Fatalf("hub tally has %d cells and index %v; want it indexed", len(tallies[3].cells), tallies[3].index != nil)
	}
	cells := mergeTallies(nil, tallies)
	decoded, err := decodeCells(nil, appendCells(nil, cells), phases, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, decoded) {
		t.Fatal("cells changed across encode/decode")
	}
	rebuilt := obs.NewCommMatrix(phases, ranks)
	rebuilt.AddCells(decoded)
	if !reflect.DeepEqual(dense.Snapshot(nil), rebuilt.Snapshot(nil)) {
		t.Error("matrix rebuilt from tallies differs from the dense count")
	}
	for ph := 0; ph < phases; ph++ {
		ws, wb, wr, wrb := dense.PhaseTotals(ph)
		gs, gb, gr, grb := rebuilt.PhaseTotals(ph)
		if ws != gs || wb != gb || wr != gr || wrb != grb {
			t.Errorf("phase %d totals differ", ph)
		}
	}
}

// uvarints encodes a hand-written cell block.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// malformedCells are cell blocks for a 4-phase, 8-rank matrix that the
// decoder must refuse.
var malformedCells = map[string][]byte{
	"empty block":         nil,
	"count only":          uvarints(1),
	"truncated cell":      uvarints(1, 0, 1, 2, 3, 4),
	"count beyond data":   uvarints(9, 0, 1, 2, 1, 1, 1, 1),
	"trailing bytes":      append(uvarints(1, 0, 1, 2, 1, 1, 1, 1), 0),
	"phase out of range":  uvarints(1, 4, 1, 2, 1, 1, 1, 1),
	"src out of range":    uvarints(1, 0, 8, 2, 1, 1, 1, 1),
	"dst out of range":    uvarints(1, 0, 1, 1<<40, 1, 1, 1, 1),
	"count past int64":    uvarints(1, 0, 1, 2, 1<<63, 1, 1, 1),
	"duplicate cell":      uvarints(2, 0, 1, 2, 1, 1, 1, 1, 0, 1, 2, 1, 1, 1, 1),
	"cells out of order":  uvarints(2, 1, 1, 2, 1, 1, 1, 1, 0, 1, 2, 1, 1, 1, 1),
	"overlong cell count": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	"padded uvarint":      {0x81, 0x00, 0, 1, 2, 1, 1, 1, 1},
}

func TestDecodeCellsRejectsMalformedBlocks(t *testing.T) {
	for name, block := range malformedCells {
		if cells, err := decodeCells(nil, block, 4, 8); !errors.Is(err, errCells) {
			t.Errorf("%s: decoded %d cells, err %v; want errCells", name, len(cells), err)
		}
	}
	if cells, err := decodeCells(nil, uvarints(0), 4, 8); err != nil || len(cells) != 0 {
		t.Errorf("an empty cell list: %d cells, err %v", len(cells), err)
	}
}

// FuzzSummaryCells holds the cell decoder to its contract on arbitrary
// bytes: an error or a list, never a panic; an accepted list is in
// range, strictly ascending, no larger than its encoding allows, and
// re-encodes to the same bytes; and decoding into storage a longer
// list was decoded into gives the same.
func FuzzSummaryCells(f *testing.F) {
	f.Add(appendCells(nil, []obs.MatrixCell{
		{Phase: 0, Src: 1, Dst: 2, SentMsgs: 3, SentBytes: 1248},
		{Phase: 0, Src: 2, Dst: 1, RecvMsgs: 3, RecvBytes: 1248},
		{Phase: 3, Src: 7, Dst: 0, SentMsgs: 1, SentBytes: 1 << 40, RecvMsgs: 1, RecvBytes: 1 << 40},
	}))
	for _, block := range malformedCells {
		f.Add(block)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const phases, ranks = 4, 8
		cells, err := decodeCells(nil, data, phases, ranks)
		dirty := make([]obs.MatrixCell, 12)
		for i := range dirty {
			dirty[i] = obs.MatrixCell{Phase: i % phases, Src: i % ranks, Dst: 7, SentMsgs: int64(i), RecvBytes: 1}
		}
		dirty, dirtyErr := decodeCells(dirty[:5], data, phases, ranks)
		if !sameErr(err, dirtyErr) {
			t.Fatalf("decoding into dirty storage fails with %v, into fresh with %v", dirtyErr, err)
		}
		if err != nil {
			return
		}
		if !slices.Equal(dirty, cells) {
			t.Fatalf("decoded into dirty storage to %+v, into fresh to %+v", dirty, cells)
		}
		if 7*len(cells) > len(data) {
			t.Fatalf("%d cells out of %d bytes", len(cells), len(data))
		}
		for i, c := range cells {
			if c.Phase < 0 || c.Phase >= phases || c.Src < 0 || c.Src >= ranks || c.Dst < 0 || c.Dst >= ranks ||
				c.SentMsgs < 0 || c.SentBytes < 0 || c.RecvMsgs < 0 || c.RecvBytes < 0 {
				t.Fatalf("cell %d out of range: %+v", i, c)
			}
			if i > 0 && compareCells(cells[i-1], c) >= 0 {
				t.Fatalf("cells %d and %d out of order: %+v %+v", i-1, i, cells[i-1], c)
			}
		}
		if again := appendCells(nil, cells); !bytes.Equal(again, data) || cellsSize(cells) != len(data) {
			t.Fatalf("accepted cells re-encode to % x (sized %d), decoded from % x", again, cellsSize(cells), data)
		}
	})
}

// TestArrivalLinksResolvedOncePerPair: the reader of a peer link finds
// the stream of a (src, dst) pair in its own table from the second frame
// on, the link it caches is the one the receiving rank gets, and racing
// that rank for a pair's first use still creates one mailbox.
func TestArrivalLinksResolvedOncePerPair(t *testing.T) {
	rt := newRuntime(8, 0)
	rt.lo, rt.hi = 4, 8
	rt.wire = &wireState{arrivals: make([][][]arrival, 2)}
	receiver := make(chan *link, 1)
	go func() { receiver <- rt.link(1, 5) }()
	first := rt.arrivalLink(0, 1, 5)
	if got := <-receiver; got != first || first.s == nil {
		t.Fatalf("reader and receiver resolved different links for 1→5 (%p, %p)", first, got)
	}
	rt.inboxes[5].mu.Lock() // a cached pair must not come back here
	again := rt.arrivalLink(0, 1, 5)
	rt.inboxes[5].mu.Unlock()
	if again != first {
		t.Error("the second frame of a pair resolved a different link")
	}
	if other := rt.arrivalLink(0, 2, 5); other == first || len(rt.wire.arrivals[0][1]) != 2 || len(rt.inboxes[5].from) != 2 {
		t.Errorf("a second source to rank 5: %d cached arrivals, %d links", len(rt.wire.arrivals[0][1]), len(rt.inboxes[5].from))
	}
}
