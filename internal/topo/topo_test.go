package topo

import (
	"testing"
	"testing/quick"
)

func TestGridBijection(t *testing.T) {
	g, err := NewGrid(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 4 || g.Cols != 6 || g.Size() != 24 {
		t.Fatalf("grid %v has wrong shape", g)
	}
	seen := map[int]bool{}
	for row := 0; row < g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			r := g.Rank(row, col)
			if seen[r] {
				t.Fatalf("rank %d assigned twice", r)
			}
			seen[r] = true
			rr, cc := g.Coord(r)
			if rr != row || cc != col {
				t.Fatalf("Coord(Rank(%d,%d)) = (%d,%d)", row, col, rr, cc)
			}
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(10, 3); err == nil {
		t.Error("c∤p should error")
	}
	if _, err := NewGrid(0, 1); err == nil {
		t.Error("p=0 should error")
	}
	if _, err := NewGrid(4, 0); err == nil {
		t.Error("c=0 should error")
	}
}

func TestTeamAndRowRanks(t *testing.T) {
	g, _ := NewGrid(12, 3)
	team := g.TeamRanks(2)
	if len(team) != 3 || team[0] != g.Rank(0, 2) || team[2] != g.Rank(2, 2) {
		t.Errorf("TeamRanks = %v", team)
	}
	row := g.RowRanks(1)
	if len(row) != 4 || row[0] != g.Rank(1, 0) {
		t.Errorf("RowRanks = %v", row)
	}
}

func TestTeamGrid2D(t *testing.T) {
	tg, err := NewTeamGrid(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tg.Side != 4 || tg.Teams() != 16 {
		t.Fatalf("team grid %+v", tg)
	}
	for team := 0; team < 16; team++ {
		x, y := tg.Coord(team)
		if tg.Team(x, y) != team {
			t.Fatalf("Team(Coord(%d)) roundtrip failed", team)
		}
	}
	if _, err := NewTeamGrid(15, 2); err == nil {
		t.Error("non-square 2D team count should error")
	}
	if _, err := NewTeamGrid(4, 3); err == nil {
		t.Error("dim=3 should error")
	}
}

func TestTeamGridNeighbor(t *testing.T) {
	tg, _ := NewTeamGrid(16, 2) // 4x4
	// Interior move.
	if n, ok := tg.Neighbor(5, 1, 1, false); !ok || n != tg.Team(2, 2) {
		t.Errorf("Neighbor(5,1,1) = %d,%v", n, ok)
	}
	// Off-grid without wrap.
	if _, ok := tg.Neighbor(0, -1, 0, false); ok {
		t.Error("off-grid neighbor should not exist")
	}
	// Wraps with wrap=true.
	if n, ok := tg.Neighbor(0, -1, 0, true); !ok || n != tg.Team(3, 0) {
		t.Errorf("wrapped neighbor = %d,%v", n, ok)
	}
}

func TestChebyshevDist(t *testing.T) {
	tg, _ := NewTeamGrid(16, 2)
	a, b := tg.Team(0, 0), tg.Team(3, 1)
	if d := tg.ChebyshevDist(a, b, false); d != 3 {
		t.Errorf("unwrapped distance %d, want 3", d)
	}
	if d := tg.ChebyshevDist(a, b, true); d != 1 {
		t.Errorf("wrapped distance %d, want 1", d)
	}
	// Symmetry property.
	prop := func(x, y int) bool {
		a := Mod(x, 16)
		b := Mod(y, 16)
		return tg.ChebyshevDist(a, b, true) == tg.ChebyshevDist(b, a, true)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSerpentineWindows(t *testing.T) {
	if got := WindowSize(2, 1); got != 5 {
		t.Errorf("WindowSize(2,1) = %d, want 5", got)
	}
	if got := WindowSize(2, 2); got != 25 {
		t.Errorf("WindowSize(2,2) = %d, want 25", got)
	}
	for dim := 1; dim <= 2; dim++ {
		for m := 0; m <= 4; m++ {
			seq := Serpentine(m, dim)
			if len(seq) != WindowSize(m, dim) {
				t.Fatalf("dim=%d m=%d: %d offsets, want %d", dim, m, len(seq), WindowSize(m, dim))
			}
			seen := map[Offset]bool{}
			for _, o := range seq {
				if seen[o] {
					t.Fatalf("dim=%d m=%d: duplicate offset %+v", dim, m, o)
				}
				seen[o] = true
				if o.Chebyshev() > m {
					t.Fatalf("dim=%d m=%d: offset %+v outside window", dim, m, o)
				}
			}
		}
	}
}

func TestTorusBijectionAndHops(t *testing.T) {
	tor, err := NewTorus(4, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tor.Nodes() != 24 || tor.Ranks() != 48 {
		t.Fatalf("torus sizes wrong: %d nodes %d ranks", tor.Nodes(), tor.Ranks())
	}
	for n := 0; n < tor.Nodes(); n++ {
		x, y, z := tor.Coord(n)
		if tor.Node(x, y, z) != n {
			t.Fatalf("Node(Coord(%d)) roundtrip failed", n)
		}
	}
	// Same-node ranks are zero hops apart.
	if tor.Hops(0, 1) != 0 {
		t.Error("ranks 0,1 share a node, hops should be 0")
	}
	// Hops symmetric; route length equals hops.
	for a := 0; a < tor.Ranks(); a += 7 {
		for b := 0; b < tor.Ranks(); b += 5 {
			h := tor.Hops(a, b)
			if h != tor.Hops(b, a) {
				t.Fatalf("hops asymmetric for %d,%d", a, b)
			}
			if got := len(tor.Route(a, b)); got != h {
				t.Fatalf("route length %d != hops %d for %d->%d", got, h, a, b)
			}
		}
	}
}

func TestTorusRouteEndsAtDestination(t *testing.T) {
	tor, _ := NewTorus(3, 3, 3, 1)
	for a := 0; a < tor.Ranks(); a++ {
		for b := 0; b < tor.Ranks(); b++ {
			cur := tor.NodeOf(a)
			for _, l := range tor.Route(a, b) {
				if l.From != cur {
					t.Fatalf("route discontinuous at %d->%d", a, b)
				}
				x, y, z := tor.Coord(cur)
				c := [3]int{x, y, z}
				dims := tor.Dims
				c[l.Dim] = Mod(c[l.Dim]+l.Dir, dims[l.Dim])
				cur = tor.Node(c[0], c[1], c[2])
			}
			if cur != tor.NodeOf(b) {
				t.Fatalf("route from %d does not reach %d", a, b)
			}
		}
	}
}

// TestBalanced3DPinned pins the exact factorization of the degenerate
// and common cases: exact balanced products when one exists (12, 64,
// 96), rounded-up cubes for primes and other skinny-only counts whose
// sole exact factorization is 1×1×p (2 keeps 1×1×2 — still within the
// skew cap — while 7 rounds up to 2×2×2 instead of degenerating to
// 1×1×7).
func TestBalanced3DPinned(t *testing.T) {
	for _, tc := range []struct {
		p, cores, x, y, z int
	}{
		{1, 1, 1, 1, 1},
		{2, 1, 1, 1, 2},
		{7, 1, 2, 2, 2},
		{12, 1, 2, 2, 3},
		{64, 1, 4, 4, 4},
		{96, 1, 4, 4, 6},
		{7, 2, 1, 2, 2},  // 4 nodes
		{12, 4, 1, 1, 3}, // 3 nodes
		{96, 4, 2, 3, 4}, // 24 nodes
	} {
		x, y, z := Balanced3D(tc.p, tc.cores)
		if x != tc.x || y != tc.y || z != tc.z {
			t.Errorf("Balanced3D(%d,%d) = %d×%d×%d, want %d×%d×%d",
				tc.p, tc.cores, x, y, z, tc.x, tc.y, tc.z)
		}
	}
}

func TestBalanced3D(t *testing.T) {
	for _, tc := range []struct{ p, cores int }{
		{24576, 24}, {32768, 4}, {1, 1}, {7, 2},
	} {
		x, y, z := Balanced3D(tc.p, tc.cores)
		if x*y*z*tc.cores < tc.p {
			t.Errorf("Balanced3D(%d,%d) = %d×%d×%d too small", tc.p, tc.cores, x, y, z)
		}
		// Near-cubic: no dimension more than ~2.5x another.
		max, min := x, x
		for _, v := range []int{y, z} {
			if v > max {
				max = v
			}
			if v < min {
				min = v
			}
		}
		if max > 3*min+1 {
			t.Errorf("Balanced3D(%d,%d) = %d×%d×%d too skewed", tc.p, tc.cores, x, y, z)
		}
	}
}

// TestTorusWraparound pins the shortest-path wrap behavior of Hops and
// Route on odd and even ring lengths: on an odd ring every delta has a
// unique shortest direction (⌊n/2⌋ hops at most), while on an even
// ring the n/2 delta is a tie that must resolve deterministically to
// the positive direction — and in both cases Route must walk exactly
// Hops links and end at the destination.
func TestTorusWraparound(t *testing.T) {
	// Odd dimension: 5-ring. From 0 to 3 the short way is backward
	// (2 hops), never forward (3 hops).
	odd, _ := NewTorus(5, 1, 1, 1)
	if h := odd.Hops(0, 3); h != 2 {
		t.Errorf("5-ring hops 0→3 = %d, want 2 (wraparound)", h)
	}
	if h := odd.Hops(0, 2); h != 2 {
		t.Errorf("5-ring hops 0→2 = %d, want 2 (direct)", h)
	}
	r := odd.Route(0, 3)
	if len(r) != 2 || r[0].Dir != -1 {
		t.Errorf("5-ring route 0→3 = %+v, want 2 backward links", r)
	}

	// Even dimension: 4-ring. The 0→2 delta is exactly n/2 — both
	// directions tie at 2 hops; the tie resolves to the positive
	// direction (torusDelta prefers +).
	even, _ := NewTorus(4, 1, 1, 1)
	if h := even.Hops(0, 2); h != 2 {
		t.Errorf("4-ring hops 0→2 = %d, want 2", h)
	}
	r = even.Route(0, 2)
	if len(r) != 2 || r[0].Dir != 1 || r[1].Dir != 1 {
		t.Errorf("4-ring route 0→2 = %+v, want 2 positive links (tie prefers +)", r)
	}

	// Mixed odd dimensions: every pair's route length must equal its
	// hop count, stay within the per-dimension ⌊n/2⌋ caps, and land on
	// the destination node.
	tor, _ := NewTorus(3, 5, 7, 1)
	maxHops := 3/2 + 5/2 + 7/2
	for a := 0; a < tor.Ranks(); a += 3 {
		for b := 0; b < tor.Ranks(); b += 2 {
			h := tor.Hops(a, b)
			if h > maxHops {
				t.Fatalf("hops %d→%d = %d exceeds diameter %d", a, b, h, maxHops)
			}
			if h != tor.Hops(b, a) {
				t.Fatalf("hops asymmetric for %d,%d", a, b)
			}
			route := tor.Route(a, b)
			if len(route) != h {
				t.Fatalf("route length %d != hops %d for %d→%d", len(route), h, a, b)
			}
			cur := tor.NodeOf(a)
			for _, l := range route {
				if l.From != cur {
					t.Fatalf("route discontinuous at %d→%d", a, b)
				}
				x, y, z := tor.Coord(cur)
				c := [3]int{x, y, z}
				c[l.Dim] = Mod(c[l.Dim]+l.Dir, tor.Dims[l.Dim])
				cur = tor.Node(c[0], c[1], c[2])
			}
			if cur != tor.NodeOf(b) {
				t.Fatalf("route from %d does not reach %d", a, b)
			}
		}
	}
}

func TestNewTorusValidation(t *testing.T) {
	if _, err := NewTorus(0, 1, 1, 1); err == nil {
		t.Error("zero dimension should error")
	}
	if _, err := NewTorus(2, 2, 2, 0); err == nil {
		t.Error("zero cores should error")
	}
}
