package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/phys"
)

func testSystem(n int) ([]phys.Particle, phys.Law, phys.Box) {
	box := phys.NewBox(10, 2, phys.Reflective)
	return phys.InitLattice(n, box, 7), phys.DefaultLaw(), box
}

func TestMeasureBasics(t *testing.T) {
	ps, law, box := testSystem(30)
	s := Measure(ps, law, box, 5, 1e-3)
	if s.Step != 5 || s.Time != 5e-3 {
		t.Errorf("step/time %d/%g", s.Step, s.Time)
	}
	if s.Kinetic < 0 || s.Potential <= 0 {
		t.Errorf("energies %g/%g implausible", s.Kinetic, s.Potential)
	}
	if s.Total != s.Kinetic+s.Potential {
		t.Error("total != kinetic + potential")
	}
	if s.Temperature <= 0 {
		t.Errorf("temperature %g", s.Temperature)
	}
}

func TestEnergyApproximatelyConservedOverRun(t *testing.T) {
	// End-to-end physics sanity: integrate with the serial kernel and
	// check bounded total-energy drift (symplectic Euler on a softened
	// repulsive potential with reflective walls).
	ps, law, box := testSystem(40)
	const dt, steps = 1e-4, 200
	first := Measure(ps, law, box, 0, dt)
	for step := 0; step < steps; step++ {
		phys.BruteForce(ps, law)
		phys.Step(ps, box, dt)
	}
	last := Measure(ps, law, box, steps, dt)
	if d := math.Abs(last.Total-first.Total) / math.Abs(first.Total); d > 0.02 {
		t.Errorf("energy drift %.4f exceeds 2%% over %d steps", d, steps)
	}
}

func TestRadialDistributionShape(t *testing.T) {
	// A strongly repulsive system equilibrated for a while must show a
	// depletion hole at short range: g(r) small in the first bins.
	box := phys.NewBox(10, 2, phys.Periodic)
	law := phys.DefaultLaw()
	ps := phys.InitLattice(100, box, 3)
	for step := 0; step < 50; step++ {
		phys.BruteForce(ps, law)
		phys.Step(ps, box, 2e-4)
	}
	g, err := RadialDistribution(ps, box, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 20 {
		t.Fatalf("bins = %d", len(g))
	}
	if g[0] > 0.5 {
		t.Errorf("g(r→0) = %g; repulsion should deplete the first bin", g[0])
	}
	// Large-r bins approach the ideal-gas value.
	var tail float64
	for _, v := range g[12:] {
		tail += v
	}
	tail /= float64(len(g[12:]))
	if tail < 0.5 || tail > 1.5 {
		t.Errorf("g tail %g far from 1", tail)
	}
}

func TestRadialDistributionValidation(t *testing.T) {
	box := phys.NewBox(10, 2, phys.Periodic)
	ps := phys.InitLattice(10, box, 3)
	if _, err := RadialDistribution(ps, box, 0, 5); err == nil {
		t.Error("zero bins should error")
	}
	if _, err := RadialDistribution(ps, box, 5, 0); err == nil {
		t.Error("zero rmax should error")
	}
	if _, err := RadialDistribution(ps[:1], box, 5, 5); err == nil {
		t.Error("single particle should error")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ps, _, _ := testSystem(25)
	cp := &Checkpoint{
		Header: Header{
			Step: 42, N: 25, P: 8, C: 2, Algorithm: 1, Dim: 2, Boundary: 0,
			Seed: 99, BoxLength: 10, Cutoff: 2.5, DT: 1e-3, ForceK: 1, Softening: 1e-3, Lattice: true,
		},
		Particles: ps,
	}
	var buf bytes.Buffer
	if err := Save(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != cp.Header {
		t.Errorf("header mismatch:\n%+v\n%+v", got.Header, cp.Header)
	}
	if len(got.Particles) != len(ps) {
		t.Fatalf("particle count %d", len(got.Particles))
	}
	for i := range ps {
		if got.Particles[i] != ps[i] {
			t.Fatalf("particle %d mismatch", i)
		}
	}
}

func TestCheckpointValidation(t *testing.T) {
	ps, _, _ := testSystem(4)
	// Header/particle count mismatch.
	var buf bytes.Buffer
	if err := Save(&buf, &Checkpoint{Header: Header{N: 5}, Particles: ps}); err == nil {
		t.Error("count mismatch should fail")
	}
	// Corrupt magic.
	buf.Reset()
	if err := Save(&buf, &Checkpoint{Header: Header{N: 4}, Particles: ps}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xFF
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corrupt magic should fail")
	}
	data[0] ^= 0xFF
	// Unsupported version.
	data[4] = 99
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("bad version should fail")
	}
	data[4] = checkpointVersion
	// The flags word (header field 13): Lattice alone loads; the
	// overlapped walk's bit is refused by name, and any unknown bit too.
	flags := 8 + 8*13
	for bits, want := range map[byte]string{flagLattice: "", flagOverlap: "overlapped", flagLattice | flagOverlap: "overlapped", 1 << 7: "unknown"} {
		data[flags] = bits
		if _, err := Load(bytes.NewReader(data)); (err == nil) != (want == "") || err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("flags %#x: Load returned %v, want an error containing %q", bits, err, want)
		}
	}
	data[flags] = 0
	// Truncated particle body.
	if _, err := Load(bytes.NewReader(data[:len(data)-10])); err == nil {
		t.Error("truncated body should fail")
	}
	// Truncated header.
	if _, err := Load(bytes.NewReader(data[:20])); err == nil {
		t.Error("truncated header should fail")
	}
	// Empty input.
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
}
