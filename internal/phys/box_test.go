package phys

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestReflectiveBoundary(t *testing.T) {
	box := NewBox(10, 2, Reflective)
	p := Particle{Pos: vec.Vec2{X: -1, Y: 10.5}, Vel: vec.Vec2{X: -2, Y: 3}}
	box.Apply(&p)
	if p.Pos.X != 1 || p.Vel.X != 2 {
		t.Errorf("X reflection: pos %g vel %g, want 1, 2", p.Pos.X, p.Vel.X)
	}
	if p.Pos.Y != 9.5 || p.Vel.Y != -3 {
		t.Errorf("Y reflection: pos %g vel %g, want 9.5, -3", p.Pos.Y, p.Vel.Y)
	}
}

func TestPeriodicBoundary(t *testing.T) {
	box := NewBox(10, 2, Periodic)
	p := Particle{Pos: vec.Vec2{X: -1, Y: 12}, Vel: vec.Vec2{X: -2, Y: 3}}
	box.Apply(&p)
	if p.Pos.X != 9 || p.Pos.Y != 2 {
		t.Errorf("wrap: %+v, want {9 2}", p.Pos)
	}
	if p.Vel != (vec.Vec2{X: -2, Y: 3}) {
		t.Error("periodic wrap must not change velocity")
	}
}

func TestBoundaryKeepsParticlesInside(t *testing.T) {
	for _, b := range []Boundary{Reflective, Periodic} {
		box := NewBox(7, 2, b)
		prop := func(x, y, vx, vy float64) bool {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				return true
			}
			// Bound the position to something physical (a particle a
			// few box lengths out after one step).
			p := Particle{
				Pos: vec.Vec2{X: math.Mod(x, 21), Y: math.Mod(y, 21)},
				Vel: vec.Vec2{X: vx, Y: vy},
			}
			box.Apply(&p)
			return box.Contains(p.Pos)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%v: %v", b, err)
		}
	}
}

func Test1DBoxZeroesY(t *testing.T) {
	box := NewBox(5, 1, Reflective)
	p := Particle{Pos: vec.Vec2{X: 2, Y: 3}, Vel: vec.Vec2{Y: 1}}
	box.Apply(&p)
	if p.Pos.Y != 0 || p.Vel.Y != 0 {
		t.Errorf("1D box left Y components: %+v %+v", p.Pos, p.Vel)
	}
}

func TestMinImage(t *testing.T) {
	box := NewBox(10, 1, Periodic)
	d := box.MinImage(vec.Vec2{X: 0.5}, vec.Vec2{X: 9.5})
	if math.Abs(d.X-1) > 1e-12 {
		t.Errorf("min image = %g, want 1", d.X)
	}
	refl := NewBox(10, 1, Reflective)
	d = refl.MinImage(vec.Vec2{X: 0.5}, vec.Vec2{X: 9.5})
	if d.X != -9 {
		t.Errorf("reflective min image = %g, want plain -9", d.X)
	}
}

func TestBoxDistSymmetric(t *testing.T) {
	box := NewBox(10, 2, Periodic)
	prop := func(ax, ay, bx, by float64) bool {
		a := vec.Vec2{X: math.Mod(math.Abs(ax), 10), Y: math.Mod(math.Abs(ay), 10)}
		b := vec.Vec2{X: math.Mod(math.Abs(bx), 10), Y: math.Mod(math.Abs(by), 10)}
		return math.Abs(box.Dist(a, b)-box.Dist(b, a)) < 1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestNewBoxValidation(t *testing.T) {
	for _, tc := range []struct {
		l   float64
		dim int
	}{{0, 1}, {-2, 2}, {5, 0}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBox(%g, %d) should panic", tc.l, tc.dim)
				}
			}()
			NewBox(tc.l, tc.dim, Reflective)
		}()
	}
}

func TestBoundaryString(t *testing.T) {
	if Reflective.String() != "reflective" || Periodic.String() != "periodic" {
		t.Error("Boundary.String broken")
	}
	if Boundary(9).String() == "" {
		t.Error("unknown boundary should still render")
	}
}

func TestStepIntegrates(t *testing.T) {
	box := NewBox(10, 2, Reflective)
	ps := []Particle{{Pos: vec.Vec2{X: 5, Y: 5}, Force: vec.Vec2{X: 1}}}
	Step(ps, box, 0.5)
	// kick-drift: v = 0.5, x = 5 + 0.25
	if ps[0].Vel.X != 0.5 || ps[0].Pos.X != 5.25 {
		t.Errorf("Step: vel %g pos %g, want 0.5, 5.25", ps[0].Vel.X, ps[0].Pos.X)
	}
}

func TestMaxSpeed(t *testing.T) {
	ps := []Particle{{Vel: vec.Vec2{X: 3, Y: 4}}, {Vel: vec.Vec2{X: 1}}}
	if got := MaxSpeed(ps); got != 5 {
		t.Errorf("MaxSpeed = %g, want 5", got)
	}
}

// TestBoundaryWithinReachKeepsBits holds the boundary condition, for a
// position within one box length of the box, to the loops it had before
// it learned to fold far positions: at most one reflection or one wrap,
// bit for bit, so no state a step can reach changes.
func TestBoundaryWithinReachKeepsBits(t *testing.T) {
	const l = 7.0
	loop := map[Boundary]func(x, v float64) (float64, float64){
		Reflective: func(x, v float64) (float64, float64) {
			for x < 0 || x > l {
				if x < 0 {
					x, v = -x, -v
				}
				if x > l {
					x, v = 2*l-x, -v
				}
			}
			return x, v
		},
		Periodic: func(x, v float64) (float64, float64) {
			for x < 0 {
				x += l
			}
			for x >= l {
				x -= l
			}
			return x, v
		},
	}
	edges := []float64{-l, math.Nextafter(-l, 0), -1e-300, 0, l, math.Nextafter(l, 2*l), math.Nextafter(2*l, 0), 2 * l}
	for b, want := range loop {
		box := NewBox(l, 1, b)
		check := func(x float64) bool {
			gx, gv := box.apply1(x, 1.5)
			wx, wv := want(x, 1.5)
			if math.Float64bits(gx) != math.Float64bits(wx) || gv != wv {
				t.Errorf("%v: x=%g gives (%g, %g), want (%g, %g)", b, x, gx, gv, wx, wv)
				return false
			}
			return true
		}
		for _, x := range edges {
			check(x)
		}
		if err := quick.Check(func(u float64) bool { return check(math.Mod(math.Abs(u), 3*l) - l) }, nil); err != nil {
			t.Error(err)
		}
	}
}

// TestBoundaryFoldsAnyPosition: any float64 position comes back inside
// the box — or stays non-finite — instead of looping once per box length
// (or forever, where 2L − x rounds to −x or x ± L to x).
func TestBoundaryFoldsAnyPosition(t *testing.T) {
	for _, b := range []Boundary{Reflective, Periodic} {
		box := NewBox(7, 1, b)
		for _, x := range []float64{3.5 * 7, -3.5 * 7, 1e14, -1e14, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
			got, _ := box.apply1(x, 1)
			if math.IsInf(x, 0) || math.IsNaN(x) {
				if !math.IsNaN(got) && !math.IsInf(got, 0) {
					t.Errorf("%v: x=%g folds to the finite %g", b, x, got)
				}
				continue
			}
			if !box.Contains(vec.Vec2{X: got}) {
				t.Errorf("%v: x=%g folds to %g, outside the box", b, x, got)
			}
		}
	}
	// 3.5 box lengths out: three walls crossed, the velocity flips.
	if x, v := NewBox(7, 1, Reflective).apply1(3.5*7, 1); x != 3.5 || v != -1 {
		t.Errorf("reflective fold of 3.5 L: (%g, %g), want (3.5, -1)", x, v)
	}
}

// TestStepReportsRunawayParticle: a force that carries a particle more
// than a box length out in one step, or beyond float64, ends the step
// with an error naming that particle.
func TestStepReportsRunawayParticle(t *testing.T) {
	box := NewBox(10, 2, Periodic)
	for _, f := range []float64{1e20, 1e300, math.Inf(1), math.NaN()} {
		ps := []Particle{{ID: 3, Pos: vec.Vec2{X: 5, Y: 5}}, {ID: 7, Pos: vec.Vec2{X: 5, Y: 5}, Force: vec.Vec2{Y: f}}}
		if err := Step(ps, box, 1e-3); err == nil || !strings.Contains(err.Error(), "particle 7 ") {
			t.Errorf("force %g: Step returned %v, want particle 7 named", f, err)
		}
	}
	ps := []Particle{{Pos: vec.Vec2{X: 5, Y: 5}, Vel: vec.Vec2{X: 1e4}}}
	if err := Step(ps, box, 1e-3); err != nil || ps[0].Pos.X != 5 {
		t.Errorf("a step of one box length: %v, position %g, want no error and a wrap to 5", err, ps[0].Pos.X)
	}
}
