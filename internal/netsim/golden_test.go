package netsim

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/place"
)

var update = flag.Bool("update", false, "rewrite the golden objective file")

// goldenObjective is the committed objective record for the smoke
// gate: searcher costs on the plan-derived cutoff traffic under a fixed
// seed. The arithmetic is deterministic (fixed seeds, fixed edge order,
// no map iteration), so the values must match bitwise across runs and
// machines.
type goldenObjective struct {
	IdentityHopBytes float64 `json:"identity_hop_bytes"`
	AnnealHopBytes   float64 `json:"anneal_seed42_hop_bytes"`
}

const goldenPath = "testdata/golden_objective.json"

// TestPlaceGolden is the `make placesmoke` gate: on the traffic the
// identity replay of the p=64 c=2 1D cutoff plan tallies, over the
// Generic machine's 4×4×4 torus, the seeded annealing searcher must beat
// the identity hop cost and reproduce the committed objective values
// exactly. Regenerate with `go test ./internal/netsim/ -run
// TestPlaceGolden -update` after an intentional searcher or plan change.
func TestPlaceGolden(t *testing.T) {
	mach := machine.Generic()
	plan, err := core.CutoffPlan(64, 2, 0.25, phys.Box{L: 1, Dim: 1, Boundary: phys.Reflective})
	if err != nil {
		t.Fatal(err)
	}
	_, traffic := identityReplay(mach, plan, 2048)
	ev, err := place.NewEvaluator(traffic, mach.TorusFor(64))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenObjective{IdentityHopBytes: ev.Cost(ev.Identity())}
	got.AnnealHopBytes = ev.Cost(place.Anneal(ev, 42))

	if got.AnnealHopBytes >= got.IdentityHopBytes {
		t.Errorf("anneal cost %.0f does not beat identity %.0f", got.AnnealHopBytes, got.IdentityHopBytes)
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %+v", got)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want goldenObjective
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("objective drift:\n got %+v\nwant %+v\nregenerate with -update only if the searcher change is intentional", got, want)
	}
}
