package netsim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
)

// TestBreakdownsPinned holds every configuration the package's tests and
// `nbody validate`'s defaults simulate (Generic machine) to its Breakdown
// bit for bit: a change that moves a phase updates the table. (The step
// has no broadcast: Bcast is 0, and the skew starts on every rank at
// once.)
func TestBreakdownsPinned(t *testing.T) {
	mach := machine.Generic()
	for _, tc := range []struct {
		p, n, c int
		want    model.Breakdown
	}{
		{64, 512, 1, model.Breakdown{Compute: 0.0004096, Bcast: 0, Skew: 0, Shift: 0.00023782400000000263, Reduce: 0, Reassign: 0}},
		{64, 512, 2, model.Breakdown{Compute: 0.0004096, Bcast: 0, Skew: 4.1319999999999996e-06, Shift: 9.85680000000013e-05, Reduce: 7.943999999999963e-06, Reassign: 0}},
		{64, 512, 4, model.Breakdown{Compute: 0.0004096, Bcast: 0, Skew: 1.0256000000000001e-05, Shift: 1.905600000000009e-05, Reduce: 1.4992000000000076e-05, Reassign: 0}},
		{64, 512, 8, model.Breakdown{Compute: 0.0004096, Bcast: 0, Skew: 1.6912000000000003e-05, Shift: 0, Reduce: 3.510400000000043e-05, Reassign: 0}},
		{64, 1024, 1, model.Breakdown{Compute: 0.0016384, Bcast: 0, Skew: 0, Shift: 0.0002644479999999941, Reduce: 0, Reassign: 0}},
		{64, 1024, 2, model.Breakdown{Compute: 0.0016384, Bcast: 0, Skew: 4.963999999999999e-06, Shift: 0.0001393360000000023, Reduce: 9.288000000000091e-06, Reassign: 0}},
		{64, 1024, 4, model.Breakdown{Compute: 0.0016384, Bcast: 0, Skew: 1.6912000000000003e-05, Shift: 2.571199999999984e-05, Reduce: 2.3184000000000095e-05, Reassign: 0}},
		{64, 1024, 8, model.Breakdown{Compute: 0.0016384, Bcast: 0, Skew: 3.0224000000000004e-05, Shift: 0, Reduce: 5.6607999999999225e-05, Reassign: 0}},
		{256, 4096, 4, model.Breakdown{Compute: 0.0065536, Bcast: 0, Skew: 1.7012000000000002e-05, Shift: 0.00010444800000001408, Reduce: 2.6655999999999902e-05, Reassign: 0}},
		{64, 65536, 1, model.Breakdown{Compute: 6.7108864, Bcast: 0, Skew: 0, Shift: 0.003619072000015832, Reduce: 0, Reassign: 0}},
		{64, 65536, 2, model.Breakdown{Compute: 6.7108864, Bcast: 0, Skew: 0.000109796, Shift: 0.005276104000016613, Reduce: 0.00017863200000078905, Reassign: 0}},
		{256, 1024, 8, model.Breakdown{Compute: 0.0004096, Bcast: 0, Skew: 2.2703999999999998e-05, Shift: 6.355600000000047e-05, Reduce: 2.95640000000001e-05, Reassign: 0}},
	} {
		got, err := AllPairsStep(mach, tc.p, tc.n, tc.c)
		if err != nil {
			t.Fatalf("p=%d n=%d c=%d: %v", tc.p, tc.n, tc.c, err)
		}
		if got != tc.want {
			t.Errorf("p=%d n=%d c=%d:\n got  %+v\n want %+v", tc.p, tc.n, tc.c, got, tc.want)
		}
	}
}
