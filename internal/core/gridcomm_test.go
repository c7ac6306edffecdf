package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/phys"
)

// commView is what one rank sees of one of its communicators: its own
// rank in it and the world ranks of the members in communicator order
// (learned by passing them around a ring of SendrecvParticles calls over
// the communicator itself, which also proves it carries traffic).
type commView struct {
	own   int
	group []int
}

// gridViews builds every rank's row, team and — on layer 0 — leader
// communicator the way the timestep loops do and returns the views,
// keyed "kind/rank".
func gridViews(t *testing.T, p, c int) map[string]commView {
	t.Helper()
	cg, err := newCommGrid(p, c)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	views := make(map[string]commView)
	_, err = comm.Run(p, comm.Options{}, func(world *comm.Comm) error {
		view := func(kind string, cm *comm.Comm) {
			me, own, n := world.Rank(), cm.Rank(), cm.Size()
			group := make([]int, n)
			group[own] = me
			// After k hops east a rank holds the world rank of the
			// member k places before it.
			carried := []phys.Particle{{ID: uint32(me)}}
			for k := 1; k < n; k++ {
				carried = cm.SendrecvParticles((own+1)%n, carried, (own+n-1)%n, 0)
				group[(own+n-k)%n] = int(carried[0].ID)
			}
			mu.Lock()
			views[fmt.Sprintf("%s/%03d", kind, me)] = commView{own, group}
			mu.Unlock()
		}
		l, _, _ := newShiftLoop(&rank{world: world}, &Params{}, cg)
		view("row", l.ring)
		view("team", l.team)
		if l.leader {
			view("lead", l.ring) // the cutoff loop's leaderComm
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return views
}

// TestGridCommsMatchSplit pins the communication-free communicators to
// what the allgather-based Comm.Split returned before it was deleted:
// for every (p, c) the all-pairs and cutoff tests run, each rank's own
// rank and member order in its row, team and leader communicator. The
// two smallest replicated grids are spelled out; all of them are held
// to an FNV-1a fingerprint of "kind/rank:own:group;" in kind, rank
// order, recorded from Split (colors row, rows+col, and one shared
// color for layer 0; keys col, row, col) at the last commit that had
// it.
func TestGridCommsMatchSplit(t *testing.T) {
	spelled := map[[2]int]map[string]commView{
		{4, 2}: {
			"row/000": {0, []int{0, 1}}, "row/001": {1, []int{0, 1}},
			"row/002": {0, []int{2, 3}}, "row/003": {1, []int{2, 3}},
			"team/000": {0, []int{0, 2}}, "team/001": {0, []int{1, 3}},
			"team/002": {1, []int{0, 2}}, "team/003": {1, []int{1, 3}},
			"lead/000": {0, []int{0, 1}}, "lead/001": {1, []int{0, 1}},
		},
		{8, 2}: {
			"row/000": {0, []int{0, 1, 2, 3}}, "row/001": {1, []int{0, 1, 2, 3}},
			"row/002": {2, []int{0, 1, 2, 3}}, "row/003": {3, []int{0, 1, 2, 3}},
			"row/004": {0, []int{4, 5, 6, 7}}, "row/005": {1, []int{4, 5, 6, 7}},
			"row/006": {2, []int{4, 5, 6, 7}}, "row/007": {3, []int{4, 5, 6, 7}},
			"team/000": {0, []int{0, 4}}, "team/001": {0, []int{1, 5}},
			"team/002": {0, []int{2, 6}}, "team/003": {0, []int{3, 7}},
			"team/004": {1, []int{0, 4}}, "team/005": {1, []int{1, 5}},
			"team/006": {1, []int{2, 6}}, "team/007": {1, []int{3, 7}},
			"lead/000": {0, []int{0, 1, 2, 3}}, "lead/001": {1, []int{0, 1, 2, 3}},
			"lead/002": {2, []int{0, 1, 2, 3}}, "lead/003": {3, []int{0, 1, 2, 3}},
		},
	}
	for _, tc := range []struct {
		p, c        int
		fingerprint uint64
	}{
		{1, 1, 0x16741d3d43932f48}, {4, 1, 0x45f19676065d423d}, {4, 2, 0x669497220cfeaa1},
		{8, 1, 0x7492541c91392da5}, {8, 2, 0x6d6e0e16072fcf79}, {9, 3, 0x3f89073e8bcb8e8d},
		{12, 2, 0xc8016b58c4e9108f}, {16, 1, 0x7356532a562ef05d}, {16, 2, 0x920f9dc102c52fb7},
		{16, 4, 0x8e410492e2a856e5}, {18, 3, 0x733f4b6aa3b4366b}, {24, 3, 0xe8269bf7e019edfd},
		{25, 5, 0x535caeb8c64c420e}, {27, 3, 0x2d5a8bec46809d13}, {32, 2, 0x26d0a88bb26eaad5},
		{32, 4, 0xbbae78aa0ebfc2c3}, {36, 6, 0x4e399499facdfc05}, {40, 5, 0x688c7b6b899a74bf},
		{64, 4, 0x1bd61741b164584f}, {64, 8, 0x58636c9ea7318c7b}, {128, 2, 0x874c52872680c499},
		{144, 4, 0x246db2fe0adf6c65},
	} {
		views := gridViews(t, tc.p, tc.c)
		if want, ok := spelled[[2]int{tc.p, tc.c}]; ok && !reflect.DeepEqual(views, want) {
			t.Errorf("p=%d c=%d: communicators %v, want %v", tc.p, tc.c, views, want)
		}
		h := fnv.New64a()
		for _, kind := range []string{"row", "team", "lead"} {
			for r := 0; r < tc.p; r++ {
				key := fmt.Sprintf("%s/%03d", kind, r)
				if v, ok := views[key]; ok {
					fmt.Fprintf(h, "%s:%d:%v;", key, v.own, v.group)
				}
			}
		}
		if got := h.Sum64(); got != tc.fingerprint {
			t.Errorf("p=%d c=%d: communicator fingerprint %#x, Split gave %#x", tc.p, tc.c, got, tc.fingerprint)
		}
	}
}
