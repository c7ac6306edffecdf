// Package vec provides small fixed-dimension vector math and a
// deterministic random number generator used throughout the repository.
//
// The simulation spaces in the paper are one- and two-dimensional, so the
// package centers on Vec2; 1D quantities use plain float64. A tiny
// SplitMix64-based RNG gives reproducible particle initializations that do
// not depend on Go release-to-release changes in math/rand.
package vec

import "math"

// Vec2 is a point or displacement in two-dimensional space.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s·v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Dot returns the dot product v·w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Norm2 returns the squared Euclidean norm of v.
func (v Vec2) Norm2() float64 { return v.X*v.X + v.Y*v.Y }

// Norm returns the Euclidean norm of v.
func (v Vec2) Norm() float64 { return math.Sqrt(v.Norm2()) }

// Neg returns -v.
func (v Vec2) Neg() Vec2 { return Vec2{-v.X, -v.Y} }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec2) Dist2(w Vec2) float64 { return v.Sub(w).Norm2() }
