package nbody

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/phys"
	"repro/internal/sim"
)

// TestSaveLoadResume: for every algorithm, at one and two workers,
// Run(a), Save, Load, Run(b) ends where Run(a+b) does, checkpoint byte
// for byte — a checkpoint drops nothing that decides the results. (The
// subtest names keep the overlap=false segment they had while a second,
// overlapped walk existed, so their IDs stay stable.)
func TestSaveLoadResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ca-all-pairs", Config{N: 64, P: 16, C: 2, Seed: 9}},
		{"ca-cutoff-1d", Config{N: 48, P: 8, C: 2, Dim: 1, Boundary: Periodic, Cutoff: 4, Lattice: true}},
		{"ca-cutoff-2d", Config{N: 64, P: 32, C: 2, Cutoff: 4, Lattice: true}},
		{"particle", Config{N: 32, P: 4, Algorithm: ParticleDecomp}},
		{"force", Config{N: 36, P: 9, Algorithm: ForceDecomp}},
		{"naive", Config{N: 32, P: 4, Algorithm: NaiveAllGather}},
	} {
		for _, workers := range []int{1, 2} {
			cfg := tc.cfg
			cfg.Workers = workers
			t.Run(fmt.Sprintf("%s/overlap=false/workers=%d", tc.name, workers), func(t *testing.T) {
				const a, b = 3, 2
				restored, err := Load(bytes.NewReader(checkpointOf(t, cfg, a)))
				var resumed bytes.Buffer
				if err == nil {
					if err = restored.Run(b); err == nil {
						err = restored.Save(&resumed)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resumed.Bytes(), checkpointOf(t, cfg, a+b)) {
					t.Errorf("Run(%d), Save, Load, Run(%d) differs from Run(%d)", a, b, a+b)
				}
			})
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Error("garbage input should fail")
	}
}

// checkpointOf saves a fresh simulation of cfg advanced by steps.
func checkpointOf(t testing.TB, cfg Config, steps int) []byte {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(steps); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withHeaderField returns a copy of a checkpoint with the i-th 8-byte
// header field (sim.Header's order, behind magic and version)
// overwritten.
func withHeaderField(ckpt []byte, i int, v uint64) []byte {
	out := bytes.Clone(ckpt)
	binary.LittleEndian.PutUint64(out[8+8*i:], v)
	return out
}

// Header fields the tests forge.
const (
	hdrStep      = 0
	hdrP         = 2
	hdrAlgorithm = 4
	hdrDim       = 5
	hdrBoundary  = 6
	hdrBoxLength = 8
	hdrCutoff    = 9
	hdrDT        = 10
	hdrSoftening = 12
	hdrFlags     = 13
	hdrPotential = 14
)

// TestLoadRejectsForgedHeader: a checkpoint header is outside input.
// Values New refuses — and the box constructor or the grid allocations
// would panic on, or a run would carry out on nonsense — must come back
// from Load as errors too. So must a checkpoint of the overlapped shift
// loop (flag bit 1) or of algorithm 6 (the midpoint method), neither of
// which exists any more to resume it on its bits, and one whose
// particles no run could have reached: IDs other than 0..N-1, a
// position outside the box or not finite, a velocity not finite, a 1D
// particle off the X axis. Each Load must also return
// promptly — a position of 1e300 once sent the cutoff loop's neighbor
// search through astronomically many cells.
func TestLoadRejectsForgedHeader(t *testing.T) {
	good := checkpointOf(t, Config{N: 64, P: 16, C: 2, Seed: 9}, 1)
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("unforged checkpoint: %v", err)
	}
	// The midpoint method ran a reflective cutoff box at c = 1, so its
	// row forges the algorithm of such a run, not of good.
	reflective := checkpointOf(t, Config{N: 64, P: 16, Algorithm: CACutoff, Dim: 1, Cutoff: 4, Lattice: true, DT: 5e-4}, 1)
	for _, tc := range []struct {
		name  string
		ckpt  []byte
		field int
		v     uint64
	}{
		{"three dimensions", good, hdrDim, 3},
		{"negative box length", good, hdrBoxLength, math.Float64bits(-16)},
		{"NaN box length", good, hdrBoxLength, math.Float64bits(math.NaN())},
		{"+Inf box length", good, hdrBoxLength, math.Float64bits(math.Inf(1))},
		{"NaN cutoff", good, hdrCutoff, math.Float64bits(math.NaN())},
		{"2^50 ranks", good, hdrP, 1 << 50},
		{"negative step count", good, hdrStep, 1 << 63},
		{"boundary 7", good, hdrBoundary, 7},
		{"potential 9", good, hdrPotential, 9},
		{"flag bits 0xff", good, hdrFlags, 0xff},
		{"overlapped walk", good, hdrFlags, 2},
		{"overlapped walk on a lattice", good, hdrFlags, 3},
		{"NaN timestep", good, hdrDT, math.Float64bits(math.NaN())},
		{"negative timestep", good, hdrDT, math.Float64bits(-1)},
		{"NaN softening", good, hdrSoftening, math.Float64bits(math.NaN())},
		{"algorithm 6", reflective, hdrAlgorithm, 6},
	} {
		if err := loadWithin(withHeaderField(tc.ckpt, tc.field, tc.v)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	line := checkpointOf(t, Config{N: 64, P: 4, Dim: 1, Boundary: Periodic, Cutoff: 4}, 1)
	if err := loadWithin(line); err != nil {
		t.Fatalf("unforged 1D checkpoint: %v", err)
	}
	for _, tc := range []struct {
		name  string
		ckpt  []byte
		forge func(ps []phys.Particle)
	}{
		{"position 1e300", line, func(ps []phys.Particle) { ps[5].Pos.X = 1e300 }},
		{"position beyond the box", line, func(ps []phys.Particle) { ps[5].Pos.X = 16.5 }},
		{"negative position", line, func(ps []phys.Particle) { ps[5].Pos.X = -0.5 }},
		{"NaN position", line, func(ps []phys.Particle) { ps[5].Pos.X = math.NaN() }},
		{"Y position beyond a 2D box", good, func(ps []phys.Particle) { ps[5].Pos.Y = 1e300 }},
		{"duplicate ID", line, func(ps []phys.Particle) { ps[5].ID = 6 }},
		{"ID out of range", line, func(ps []phys.Particle) { ps[63].ID = 64 }},
		{"NaN velocity", line, func(ps []phys.Particle) { ps[5].Vel.X = math.NaN() }},
		{"infinite velocity", good, func(ps []phys.Particle) { ps[5].Vel.Y = math.Inf(-1) }},
		{"1D Y position", line, func(ps []phys.Particle) { ps[5].Pos.Y = 1 }},
		{"1D Y velocity", line, func(ps []phys.Particle) { ps[5].Vel.Y = 0.25 }},
	} {
		if err := loadWithin(withParticles(t, tc.ckpt, tc.forge)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// loadWithin is Load of a checkpoint's bytes that must return within
// five seconds, panicking otherwise — after the test binary's stack dump
// names where it hung.
func loadWithin(ckpt []byte) error {
	done := make(chan error, 1)
	go func() {
		_, err := Load(bytes.NewReader(ckpt))
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		panic("Load still running after 5 s")
	}
}

// withParticles returns a copy of a checkpoint whose particles, sorted
// by ID, forge has altered.
func withParticles(t *testing.T, ckpt []byte, forge func([]phys.Particle)) []byte {
	t.Helper()
	cp, err := sim.Load(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	phys.SortByID(cp.Particles)
	forge(cp.Particles)
	var out bytes.Buffer
	if err := sim.Save(&out, cp); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzLoad drives Load past where internal/sim's FuzzLoad stops: the
// header's mapping onto a Config, its validation and the configured
// driver's session constructor. Load must never panic, and what it accepts must
// re-save and reload to the same configuration, step count and
// particles — compared in saved form, which is also how NaN payloads
// compare. (Load defaults zero fields and settles C, so the first
// re-save is the fixed point, not the input.)
func FuzzLoad(f *testing.F) {
	allPairs := checkpointOf(f, Config{N: 64, P: 16, C: 2, Seed: 9}, 4)
	f.Add(allPairs)
	f.Add(checkpointOf(f, Config{N: 48, P: 8, C: 2, Dim: 1, Boundary: Periodic, Cutoff: 4, Lattice: true}, 2))
	f.Add(checkpointOf(f, Config{N: 36, P: 9, Algorithm: ForceDecomp, Potential: LennardJonesPotential}, 1))
	f.Add(withHeaderField(allPairs, hdrAlgorithm, 6))
	f.Add(allPairs[:len(allPairs)-7])
	f.Add(withHeaderField(allPairs, hdrDim, 3))
	f.Add(withHeaderField(allPairs, hdrBoxLength, math.Float64bits(-16)))
	f.Add(withHeaderField(allPairs, hdrFlags, 0xff))
	f.Add(withHeaderField(allPairs, hdrDT, math.Float64bits(math.NaN())))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The session constructor allocates O(P). Up to maxRanks is
		// defined behaviour (TestLoadRejectsForgedHeader has the case
		// beyond), but not a cost to pay per fuzz input.
		if len(data) >= 8+8*(hdrP+1) && binary.LittleEndian.Uint64(data[8+8*hdrP:]) > 256 {
			return
		}
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := s.Save(&first); err != nil {
			t.Fatalf("accepted checkpoint fails to re-save: %v", err)
		}
		s2, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-saved checkpoint fails to load: %v", err)
		}
		if s2.Steps() != s.Steps() {
			t.Fatalf("reload at step %d, want %d", s2.Steps(), s.Steps())
		}
		var second bytes.Buffer
		if err := s2.Save(&second); err != nil {
			t.Fatalf("second re-save failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save∘Load is not a fixed point: configurations %+v and %+v", s.Config(), s2.Config())
		}
	})
}

func TestObserve(t *testing.T) {
	sim, err := New(Config{N: 32, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	s0 := sim.Observe()
	if s0.Step != 0 || s0.Potential <= 0 {
		t.Errorf("initial sample %+v implausible", s0)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	s1 := sim.Observe()
	if s1.Step != 10 {
		t.Errorf("sample step %d, want 10", s1.Step)
	}
	// Repulsion converts potential into kinetic energy.
	if s1.Kinetic <= s0.Kinetic {
		t.Errorf("kinetic energy did not grow: %g -> %g", s0.Kinetic, s1.Kinetic)
	}
}

func TestRadialDistributionAPI(t *testing.T) {
	sim, err := New(Config{N: 64, P: 1, Boundary: Periodic, Lattice: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.RadialDistribution(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 10 {
		t.Fatalf("bins = %d", len(g))
	}
	if _, err := sim.RadialDistribution(0, 4); err == nil {
		t.Error("bad bins should error")
	}
}
