//go:build !obsdebug

// The zero-allocation claim is a release-build property: obsdebug
// builds deliberately allocate in the Stats ownership guard, so this
// test only runs without the tag.

package comm

import "testing"

// TestScratchReductionsSteadyStateAllocFree pins the zero-allocation
// claim for the scratch reduction paths end to end: once the per-rank
// scratch has grown, additional reduction rounds must not allocate —
// measured as the global malloc delta between two otherwise identical
// runs that differ only in round count.
func TestScratchReductionsSteadyStateAllocFree(t *testing.T) {
	const p, length = 4, 64
	run := func(rounds int) {
		_, err := Run(p, Options{}, func(c *Comm) error {
			var sc1, sc2 F64Scratch
			vals := make([]float64, length)
			for i := range vals {
				vals[i] = float64(c.Rank() + i)
			}
			for round := 0; round < rounds; round++ {
				c.ReduceScatterF64sInto(vals, &sc1)
				c.AllreduceRabenseifnerInto(vals, &sc2)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mallocs := func(rounds int) uint64 {
		objects, _ := quietMallocs(t, 64, func() { run(rounds) })
		return objects
	}
	base := mallocs(3)
	long := mallocs(23)
	if long != base {
		t.Errorf("a 23-round run allocated %d objects, a 3-round run %d; 20 extra reduction rounds must allocate 0", long, base)
	}
}
