package netsim

import (
	"testing"

	"repro/internal/machine"
)

func TestCutoff1DStepReplicationReducesShift(t *testing.T) {
	mach := machine.Generic()
	prev := -1.0
	for _, c := range []int{1, 2, 4} {
		b, err := CutoffStep(mach, 64, 1024, c, 0.25, 1)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		shift := b.Skew + b.Shift
		if prev > 0 && shift >= prev {
			t.Errorf("c=%d: window traversal %.3g did not drop from %.3g", c, shift, prev)
		}
		prev = shift
	}
}

func TestCutoff2DStepReplicationHelps(t *testing.T) {
	mach := machine.Generic()
	b1, err := CutoffStep(mach, 256, 4096, 1, 0.25, 2) // 256 teams, 16x16, m=4
	if err != nil {
		t.Fatal(err)
	}
	b4, err := CutoffStep(mach, 256, 4096, 4, 0.25, 2) // 64 teams, 8x8, m=2
	if err != nil {
		t.Fatal(err)
	}
	if b4.Skew+b4.Shift >= b1.Skew+b1.Shift {
		t.Errorf("2D window traversal did not shrink: c=1 %.3g vs c=4 %.3g",
			b1.Skew+b1.Shift, b4.Skew+b4.Shift)
	}
}

func TestCutoff1DStepRejectsBadConfigs(t *testing.T) {
	mach := machine.Generic()
	if _, err := CutoffStep(mach, 0, 100, 1, 0.25, 1); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := CutoffStep(mach, 6, 100, 4, 0.25, 1); err == nil {
		t.Error("c∤p should fail")
	}
	if _, err := CutoffStep(mach, 4, 100, 1, 0.45, 1); err == nil {
		t.Error("oversized window should fail")
	}
}

func TestNaiveAllGatherStepScalesWithP(t *testing.T) {
	mach := machine.Generic()
	b64, err := NaiveAllGatherStep(mach, 64, 2048)
	if err != nil {
		t.Fatal(err)
	}
	b128, err := NaiveAllGatherStep(mach, 128, 2048)
	if err != nil {
		t.Fatal(err)
	}
	// S = O(p): doubling p roughly doubles the allgather rounds while
	// halving per-block bytes; the latency term must dominate growth.
	if b128.Shift <= b64.Shift {
		t.Errorf("naive shift should grow with p: p=64 %.3g vs p=128 %.3g", b64.Shift, b128.Shift)
	}
	if _, err := NaiveAllGatherStep(mach, 0, 10); err == nil {
		t.Error("p=0 should fail")
	}
}

func TestCAOutperformsNaiveInSimulation(t *testing.T) {
	// The headline comparison, run entirely through the event-driven
	// simulator: the CA algorithm at a good c beats the naive
	// decomposition's communication by a large factor.
	mach := machine.Generic()
	naive, err := NaiveAllGatherStep(mach, 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := AllPairsStep(mach, 256, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Comm() >= naive.Comm()/2 {
		t.Errorf("CA comm %.3g not well below naive %.3g", ca.Comm(), naive.Comm())
	}
}
