package netsim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/place"
)

// TestPlacementWhatIfNeverSlower runs the placement what-if on the
// configurations cmd/validate tables at p=256 (n=32768, c=4, cutoff L/16):
// every row's permutation is valid, the identity row is the plain replay
// bit for bit, and the chosen row's replayed step is never slower than
// identity's. On Intrepid's 1D cutoff the choice must be greedy, whose
// step is 16 % shorter while anneal's hop-bytes are lower: this pins the
// selection by the replayed step rather than by hop-bytes.
func TestPlacementWhatIfNeverSlower(t *testing.T) {
	const p, n, c, rc = 256, 32768, 4, 1.0 / 16
	for _, m := range []struct {
		name string
		mach machine.Machine
	}{{"hopper", machine.Hopper()}, {"intrepid", machine.Intrepid()}} {
		for _, dim := range []int{0, 1, 2} {
			alg, plan, err := "ap", (*core.Plan)(nil), error(nil)
			if dim == 0 {
				plan, err = core.AllPairsPlan(p, c)
			} else {
				alg = fmt.Sprintf("cut%dd", dim)
				plan, err = core.CutoffPlan(p, c, rc, phys.Box{L: 1, Dim: dim, Boundary: phys.Reflective})
			}
			if err != nil {
				t.Fatal(err)
			}
			tab, err := PlacementWhatIf(m.mach, plan, n, 1)
			if err != nil {
				t.Fatalf("%s %s: %v", m.name, alg, err)
			}
			slots := m.mach.TorusFor(p).Ranks()
			for _, r := range tab.Rows {
				if err := place.CheckPerm(r.Perm, slots); err != nil {
					t.Errorf("%s %s %s: %v", m.name, alg, r.Searcher, err)
				}
			}
			if want := replay(NewSim(m.mach, p), plan, n); tab.Rows[0].Step != want {
				t.Errorf("%s %s: identity row %+v, plain replay %+v", m.name, alg, tab.Rows[0].Step, want)
			}
			chosen, id := tab.Rows[tab.Chosen], tab.Rows[0]
			if chosen.Step.Total() > id.Step.Total() {
				t.Errorf("%s %s: chosen %s step %.4g s slower than identity %.4g s",
					m.name, alg, chosen.Searcher, chosen.Step.Total(), id.Step.Total())
			}
			if m.name == "intrepid" && alg == "cut1d" {
				if chosen.Searcher != "greedy" || chosen.Step.Total() > 0.9*id.Step.Total() {
					t.Errorf("intrepid cut1d: chose %s at %.4g s against identity %.4g s, want greedy at least 10%% shorter",
						chosen.Searcher, chosen.Step.Total(), id.Step.Total())
				}
			}
		}
	}
}
