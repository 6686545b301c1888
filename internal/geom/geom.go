// Package geom provides the small geometric substrate used by the mesh,
// adaption, and partitioning packages: 3-vectors, bounding volumes, and
// tetrahedron measures.
//
// Everything here is allocation-free and safe for concurrent use (all
// methods are value receivers on immutable data).
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or direction in R^3.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Mid returns the midpoint of the segment vw.
func (v Vec3) Mid(w Vec3) Vec3 {
	return Vec3{0.5 * (v.X + w.X), 0.5 * (v.Y + w.Y), 0.5 * (v.Z + w.Z)}
}

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// AABB is an axis-aligned bounding box. The zero value is the empty box
// (Min > Max componentwise after Reset); use NewAABB or Extend to build one.
type AABB struct {
	Min, Max Vec3
}

// NewAABB returns the box spanning exactly the two corner points.
func NewAABB(lo, hi Vec3) AABB {
	return AABB{
		Min: Vec3{math.Min(lo.X, hi.X), math.Min(lo.Y, hi.Y), math.Min(lo.Z, hi.Z)},
		Max: Vec3{math.Max(lo.X, hi.X), math.Max(lo.Y, hi.Y), math.Max(lo.Z, hi.Z)},
	}
}

// EmptyAABB returns a box that contains nothing and acts as the identity
// for Union/Extend.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Contains reports whether p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Extend returns the smallest box containing b and p.
func (b AABB) Extend(p Vec3) AABB {
	return AABB{
		Min: Vec3{math.Min(b.Min.X, p.X), math.Min(b.Min.Y, p.Y), math.Min(b.Min.Z, p.Z)},
		Max: Vec3{math.Max(b.Max.X, p.X), math.Max(b.Max.Y, p.Y), math.Max(b.Max.Z, p.Z)},
	}
}

// Size returns the per-axis extents of the box.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Sphere is a ball in R^3, used to describe the Local_1 adaption region.
type Sphere struct {
	Center Vec3
	Radius float64
}

// Contains reports whether p lies inside or on the sphere.
func (s Sphere) Contains(p Vec3) bool {
	return p.Sub(s.Center).Norm2() <= s.Radius*s.Radius
}

// Region is a geometric predicate over points, used to select edges for
// refinement or coarsening (spherical Local_1 region, rectangular Local_2
// region, or any caller-supplied shape).
type Region interface {
	Contains(p Vec3) bool
}

var (
	_ Region = Sphere{}
	_ Region = AABB{}
)

// All is a Region containing every point.
type All struct{}

// Contains always reports true.
func (All) Contains(Vec3) bool { return true }

// TetVolume returns the signed volume of the tetrahedron (a, b, c, d):
// det(b-a, c-a, d-a)/6. Positive when (b-a, c-a, d-a) is a right-handed
// frame.
func TetVolume(a, b, c, d Vec3) float64 {
	u := b.Sub(a)
	v := c.Sub(a)
	w := d.Sub(a)
	return u.Dot(v.Cross(w)) / 6.0
}

// TetCentroid returns the centroid of the tetrahedron (a, b, c, d).
func TetCentroid(a, b, c, d Vec3) Vec3 {
	return Vec3{
		(a.X + b.X + c.X + d.X) / 4,
		(a.Y + b.Y + c.Y + d.Y) / 4,
		(a.Z + b.Z + c.Z + d.Z) / 4,
	}
}

// TetAspectRatio returns a scale-invariant shape quality for the
// tetrahedron: the ratio of the longest edge to the shortest edge.
// 1 is best (only achieved in degenerate symmetric limits); large values
// indicate slivers.
func TetAspectRatio(a, b, c, d Vec3) float64 {
	pts := [4]Vec3{a, b, c, d}
	shortest := math.Inf(1)
	longest := 0.0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			l := pts[i].Dist(pts[j])
			if l < shortest {
				shortest = l
			}
			if l > longest {
				longest = l
			}
		}
	}
	if shortest == 0 {
		return math.Inf(1)
	}
	return longest / shortest
}
