package netsim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
)

// TestBreakdownsPinned holds every configuration the package's tests and
// `nbody validate`'s defaults simulate (Generic machine) to its Breakdown
// bit for bit: a change that moves a phase updates the table.
func TestBreakdownsPinned(t *testing.T) {
	mach := machine.Generic()
	for _, tc := range []struct {
		p, n, c int
		want    model.Breakdown
	}{
		{64, 512, 1, model.Breakdown{Compute: 0.0004096, Bcast: 0, Skew: 0, Shift: 0.00023782400000000263, Reduce: 0, Reassign: 0}},
		{64, 512, 2, model.Breakdown{Compute: 0.0004096, Bcast: 4.979625e-06, Skew: 5.063999999999999e-06, Shift: 0.00011348000000000171, Reduce: 9.923625000000003e-06, Reassign: 0}},
		{64, 512, 4, model.Breakdown{Compute: 0.0004096, Bcast: 9.6905e-06, Skew: 1.0256000000000001e-05, Shift: 1.9056000000000076e-05, Reduce: 1.5894499999999975e-05, Reassign: 0}},
		{64, 512, 8, model.Breakdown{Compute: 0.0004096, Bcast: 2.3161999999999996e-05, Skew: 1.6911999999999997e-05, Shift: 0, Reduce: 3.438600000000013e-05, Reassign: 0}},
		{64, 1024, 1, model.Breakdown{Compute: 0.0016384, Bcast: 0, Skew: 0, Shift: 0.0002644479999999941, Reduce: 0, Reassign: 0}},
		{64, 1024, 2, model.Breakdown{Compute: 0.0016384, Bcast: 6.643625e-06, Skew: 6.728000000000004e-06, Shift: 0.00016755999999999862, Reduce: 1.2931625000000202e-05, Reassign: 0}},
		{64, 1024, 4, model.Breakdown{Compute: 0.0016384, Bcast: 1.3018500000000002e-05, Skew: 1.6911999999999997e-05, Shift: 2.571199999999984e-05, Reduce: 2.472650000000026e-05, Reassign: 0}},
		{64, 1024, 8, model.Breakdown{Compute: 0.0016384, Bcast: 3.6474e-05, Skew: 3.0224000000000007e-05, Shift: 0, Reduce: 5.5122000000000114e-05, Reassign: 0}},
		{256, 4096, 4, model.Breakdown{Compute: 0.0065536, Bcast: 2.3512e-05, Skew: 2.676800000000001e-05, Shift: 0.0002605440000000135, Reduce: 3.654400000000207e-05, Reassign: 0}},
		{64, 65536, 1, model.Breakdown{Compute: 6.7108864, Bcast: 0, Skew: 0, Shift: 0.003619072000015832, Reduce: 0, Reassign: 0}},
		{64, 65536, 2, model.Breakdown{Compute: 6.7108864, Bcast: 0.000216307625, Skew: 0.00021639199999999998, Shift: 0.006981639999998231, Reduce: 0.00039193962499872725, Reassign: 0}},
		{256, 1024, 8, model.Breakdown{Compute: 0.0004096, Bcast: 1.6692000000000002e-05, Skew: 2.2704000000000008e-05, Shift: 6.355600000000053e-05, Reduce: 3.449200000000001e-05, Reassign: 0}},
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
