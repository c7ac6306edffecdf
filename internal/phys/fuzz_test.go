package phys

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeSlice hardens the wire decoder against arbitrary input: it
// must never panic, and whatever decodes must re-encode to the same
// bytes.
func FuzzDecodeSlice(f *testing.F) {
	box := NewBox(10, 2, Reflective)
	f.Add(EncodeSlice(InitUniform(3, box, 1)))
	f.Add([]byte{})
	f.Add(make([]byte, WireSize-1))
	f.Add(make([]byte, WireSize+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodeSlice(data)
		if err != nil {
			return
		}
		if len(data)%WireSize != 0 {
			t.Fatalf("accepted misaligned buffer of %d bytes", len(data))
		}
		round := EncodeSlice(ps)
		if !bytes.Equal(round, data) {
			t.Fatalf("re-encode mismatch: %d vs %d bytes", len(round), len(data))
		}
	})
}

// FuzzSweepMatchesGo holds the path AccumulateIn selects for the
// repulsive law on this build — the AVX2 sweeps where the CPU has them
// (their pipelined loops with AVX-512VL), the Go loops elsewhere — to its
// reference, the plain Go loop without a cutoff and the generic per-pair
// path (Law.AccumulateGeneric) with one: same pair count, and every
// force equal bit for bit (two NaNs count as equal). kk is the strength
// K — tiny, huge, negative, zero: the pipelined open sweep admits a
// range of it and hands the rest to its plain loop — and raw overwrites
// coordinates, sources first, with whatever finite doubles the fuzzer
// invents: out-of-box positions, coincident pairs, values whose squares
// overflow (in a reflective box; a periodic one takes images up to a
// hundred boxes out). cuts slices the sources into blocks — each byte
// the length of the next one, zero an empty block, what is left the
// last — and AccumulateBlocks over those is held to AccumulateIn over
// the uncut slice the same way. Last, the self modes: targets and
// sources as one block, their IDs shared as mode says, through
// AccumulateSelf (the symmetric sweep where the repulsive law runs the
// pipelined loop), held to the generic path over the block and a copy of
// it under the same box; and under a cutoff, the same block squeezed
// into a square of side min(rc, l) at the origin, which the cutoff law's
// symmetric sweep takes unless it wraps.
func FuzzSweepMatchesGo(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(13), uint8(0), 1.3, 1e-3, 0.0, []byte{}, []byte{})
	f.Add(uint64(2), uint8(8), uint8(8), uint8(3), 1.3, 0.0, 0.9, []byte{}, []byte{3, 0, 4})
	f.Add(uint64(3), uint8(5), uint8(70), uint8(6), -2.5, 1e-3, 1.4, binary.LittleEndian.AppendUint64(nil, math.Float64bits(7.9)), []byte{8, 8, 8, 8})
	f.Add(uint64(4), uint8(12), uint8(3), uint8(9), 1.3, 0.0, 0.0, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e200)), []byte{0, 1, 1, 200})
	f.Add(uint64(5), uint8(39), uint8(89), uint8(5), 1.3, 1e-3, 0.0, []byte{}, []byte{1, 0, 0, 7, 30, 2})
	f.Add(uint64(6), uint8(17), uint8(64), uint8(0), 0x1p-500, 0.0, 0.0, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e-130)), []byte{16, 0, 15, 17})
	f.Add(uint64(7), uint8(8), uint8(33), uint8(4), -0x1p+500, 0.0, 0.0, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e120)), []byte{})
	f.Add(uint64(8), uint8(20), uint8(47), uint8(8), 1e-310, 1e-3, 0.0, []byte{}, []byte{23})
	// A cutoff most of the box wide, so that the gate of the pipelined
	// cutoff sweep lets a run of sixteen and more through: 2D reflective,
	// 2D periodic, 1D periodic with shared IDs.
	f.Add(uint64(9), uint8(13), uint8(88), uint8(1), 1.3, 0.0, 1.6, []byte{}, []byte{})
	f.Add(uint64(10), uint8(39), uint8(77), uint8(3), -0.7, 1e-3, 1.6, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.5)), []byte{})
	f.Add(uint64(11), uint8(7), uint8(85), uint8(2|5<<2), 1.3, 0.0, 1.2, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, nt, ns, mode uint8, kk, soft, rc float64, raw, cuts []byte) {
		if math.IsNaN(kk) {
			kk = 1.3
		}
		if !(soft >= 0 && soft <= 1) {
			soft = 0
		}
		if !(rc >= 0 && rc <= 10) {
			rc = 0
		}
		box := Box{L: 3, Dim: 1 + int(mode&1), Boundary: Boundary(mode >> 1 & 1)}
		targets := InitUniform(int(nt%40), box, seed)
		sources := InitUniform(int(ns%90), box, seed+1)
		for j := range sources {
			sources[j].ID += uint32(mode >> 2) // how many IDs the slices share
		}
		seedForces(targets)
		coord := func(i int) *float64 {
			ps := sources
			if i >= 2*len(ps) {
				i -= 2 * len(ps)
				ps = targets
			}
			if i >= 2*len(ps) {
				return nil
			}
			if i%2 == 0 {
				return &ps[i/2].Pos.X
			}
			return &ps[i/2].Pos.Y
		}
		for i := 0; len(raw) >= 8; i, raw = i+1, raw[8:] {
			c := coord(i)
			if c == nil {
				break
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// minImage1 walks a displacement home one box length at a
			// time, so a far image costs the reference loop that many
			// iterations (and a displacement l cannot move, forever).
			if box.Boundary == Periodic && math.Abs(v) > 100*box.L {
				continue
			}
			*c = v
		}

		law := Law{Kind: Repulsive, K: kk, Softening: soft, Cutoff: rc}
		k := law.Kernel()
		want := append([]Particle(nil), targets...)
		got := append([]Particle(nil), targets...)
		var nWant, nGot int64
		if rc > 0 {
			nWant = law.AccumulateGeneric(want, sources, box)
		} else {
			nWant = k.accumulateRepOpen(want, sources)
		}
		nGot = k.AccumulateIn(got, sources, box)
		if nGot != nWant {
			t.Fatalf("counted %d pairs, the reference %d", nGot, nWant)
		}
		compare := func(what string, got, want []Particle) {
			for i := range got {
				if !sameOrNaN(got[i].Force.X, want[i].Force.X) || !sameOrNaN(got[i].Force.Y, want[i].Force.Y) {
					t.Fatalf("target %d: %s force (%x, %x), want (%x, %x)", i, what,
						math.Float64bits(got[i].Force.X), math.Float64bits(got[i].Force.Y),
						math.Float64bits(want[i].Force.X), math.Float64bits(want[i].Force.Y))
				}
			}
		}
		compare("selected path", got, want)

		var blocks [][]Particle
		rest := sources
		for _, c := range cuts {
			n := min(int(c), len(rest))
			blocks = append(blocks, rest[:n])
			rest = rest[n:]
		}
		blocks = append(blocks, rest)
		uncut := append([]Particle(nil), targets...)
		cut := append([]Particle(nil), targets...)
		if nCut, nUncut := k.AccumulateBlocks(cut, blocks, box), k.AccumulateIn(uncut, sources, box); nCut != nUncut {
			t.Fatalf("AccumulateBlocks counted %d pairs over %d blocks, AccumulateIn %d over the uncut slice", nCut, len(blocks), nUncut)
		}
		compare("AccumulateBlocks", cut, uncut)

		self := append(append([]Particle(nil), targets...), sources...)
		selfWant := append([]Particle(nil), self...)
		nSelfWant := law.AccumulateGeneric(selfWant, append([]Particle(nil), self...), box)
		if nSelf := k.AccumulateSelf(self, box); nSelf != nSelfWant {
			t.Fatalf("AccumulateSelf counted %d pairs over %d particles, the generic path %d", nSelf, len(self), nSelfWant)
		}
		compare("AccumulateSelf", self, selfWant)

		if rc == 0 {
			return
		}
		side := min(rc, box.L)
		squeeze := func(x float64) float64 { return min(max(x*side/box.L, 0), side) }
		for i := range self {
			self[i].Pos.X, self[i].Pos.Y = squeeze(self[i].Pos.X), squeeze(self[i].Pos.Y)
		}
		seedForces(self)
		selfWant = append(selfWant[:0], self...)
		nSelfWant = law.AccumulateGeneric(selfWant, append([]Particle(nil), self...), box)
		if nSelf := k.AccumulateSelf(self, box); nSelf != nSelfWant {
			t.Fatalf("AccumulateSelf counted %d pairs over %d squeezed particles, the generic path %d", nSelf, len(self), nSelfWant)
		}
		compare("AccumulateSelf over the squeezed block", self, selfWant)
	})
}
