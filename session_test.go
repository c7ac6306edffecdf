package nbody

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/leakcheck"
)

// TestRunCostsItsSteps: a Run advances the session the previous one
// left, so on the benchmark's cutoff-2d configuration the second Run(8)
// allocates next to nothing — against the 3.7 MB a Run cost when every
// call rebuilt the ranks' runtime, buffers and loops — and, like every
// Run, leaves no goroutine behind.
func TestRunCostsItsSteps(t *testing.T) {
	defer leakcheck.Check(t)()
	sim, err := New(Config{N: 4096, P: 64, C: 4, Dim: 2, Boundary: Reflective,
		Cutoff: 4, Lattice: true, DT: 5e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, steps := range []int{1, 8} {
		if err := sim.Run(steps); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := sim.Run(8); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	const bound = 80 << 10
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("the second Run(8) allocated %d bytes", got)
	if got > bound {
		t.Errorf("the second Run(8) allocated %d bytes, want at most %d", got, bound)
	}
}

// TestFailedRunKeepsState: a Run that fails — the third step moves a
// particle two teams — leaves the particles, the step count and the
// report as the last successful Run left them, drops the session and
// leaves no goroutine behind. The next Run builds a session from those
// particles, so it fails the same way again.
func TestFailedRunKeepsState(t *testing.T) {
	sim, err := New(Config{N: 64, P: 16, C: 2, Dim: 1, Cutoff: 4, DT: 5e-3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	ps, rep := sim.Particles(), sim.Report()
	noLeak := leakcheck.Check(t)
	failed := sim.Run(3)
	noLeak()
	if failed == nil || !strings.Contains(failed.Error(), "team widths in one step") {
		t.Fatalf("Run returned %v, want the migration refused", failed)
	}
	if sim.session != nil {
		t.Error("a failed Run kept its session")
	}
	if sim.Steps() != 2 || sim.Report() != rep {
		t.Errorf("after a failed Run: step %d and report %p, want 2 and %p", sim.Steps(), sim.Report(), rep)
	}
	for i, p := range sim.Particles() {
		if p != ps[i] {
			t.Fatalf("after a failed Run particle %d is %+v, was %+v", i, p, ps[i])
		}
	}
	if again := sim.Run(3); again == nil || again.Error() != failed.Error() {
		t.Errorf("the Run after a failure returned %v, want %v again", again, failed)
	}
}

// TestEnableObservationBetweenRuns: observation switched on between two
// Runs rebuilds the session around the new observer, which changes
// neither the trajectory nor the traffic — the state and the second
// Run's per-phase counts are those of a simulation observed from the
// start — and the new observer sees the second Run's steps alone.
func TestEnableObservationBetweenRuns(t *testing.T) {
	defer leakcheck.Check(t)()
	cfg := Config{N: 64, P: 32, C: 2, Dim: 2, Cutoff: 4, Lattice: true, DT: 5e-4, Seed: 9}
	observed := cfg
	observed.Observe = &ObserveOptions{}
	from, err := New(observed)
	if err != nil {
		t.Fatal(err)
	}
	later, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, steps := range []int{3, 4} {
		if i == 1 {
			later.EnableObservation(nil)
		}
		for _, sim := range []*Simulation{from, later} {
			if err := sim.Run(steps); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, got := from.Particles(), later.Particles()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("particle %d is %+v, observed from the start %+v", i, got[i], want[i])
		}
	}
	wr, gr := from.Report(), later.Report()
	if wr.S() != gr.S() || wr.W() != gr.W() {
		t.Errorf("second Run: S=%d W=%d, observed from the start S=%d W=%d", gr.S(), gr.W(), wr.S(), wr.W())
	}
	for ph := range wr.Sum {
		w, g := wr.Sum[ph], gr.Sum[ph]
		if w.Messages != g.Messages || w.Bytes != g.Bytes || w.RecvMessages != g.RecvMessages || w.RecvBytes != g.RecvBytes {
			t.Errorf("second Run, phase %d: %+v, observed from the start %+v", ph, g, w)
		}
	}
	if n := later.MetricsSnapshot().Counters["step.count"]; n != 4 {
		t.Errorf("the observer enabled before the second Run counted %d steps, want 4", n)
	}
}
