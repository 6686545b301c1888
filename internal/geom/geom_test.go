package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecAlgebra(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, -5, 6}
	if got := v.Add(w); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Mid(w); got != (Vec3{2.5, -1.5, 4.5}) {
		t.Errorf("Mid = %v", got)
	}
}

// clamp maps an arbitrary quick-generated float into a well-conditioned
// range so products cannot overflow.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e3)
}

func TestCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clamp(ax), clamp(ay), clamp(az)}
		b := Vec3{clamp(bx), clamp(by), clamp(bz)}
		c := a.Cross(b)
		scale := a.Norm()*b.Norm() + 1
		return almostEq(c.Dot(a), 0, 1e-9*scale*scale) && almostEq(c.Dot(b), 0, 1e-9*scale*scale)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCrossAnticommutes(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clamp(ax), clamp(ay), clamp(az)}
		b := Vec3{clamp(bx), clamp(by), clamp(bz)}
		c1 := a.Cross(b)
		c2 := b.Cross(a).Scale(-1)
		return c1 == c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormDist(t *testing.T) {
	v := Vec3{3, 4, 0}
	if v.Norm() != 5 {
		t.Errorf("Norm = %v", v.Norm())
	}
	if v.Norm2() != 25 {
		t.Errorf("Norm2 = %v", v.Norm2())
	}
	if got := v.Dist(Vec3{0, 0, 0}); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestTetVolumeUnit(t *testing.T) {
	// Unit right tetrahedron has volume 1/6.
	v := TetVolume(Vec3{}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1})
	if !almostEq(v, 1.0/6.0, 1e-15) {
		t.Errorf("TetVolume = %v, want 1/6", v)
	}
	// Swapping two vertices flips the sign.
	v2 := TetVolume(Vec3{}, Vec3{1, 0, 0}, Vec3{0, 0, 1}, Vec3{0, 1, 0})
	if !almostEq(v2, -1.0/6.0, 1e-15) {
		t.Errorf("swapped TetVolume = %v, want -1/6", v2)
	}
}

func TestTetVolumeTranslationInvariant(t *testing.T) {
	f := func(ox, oy, oz float64) bool {
		if math.Abs(ox) > 1e6 || math.Abs(oy) > 1e6 || math.Abs(oz) > 1e6 {
			return true // avoid catastrophic cancellation domains
		}
		o := Vec3{ox, oy, oz}
		a, b, c, d := Vec3{}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1}
		v1 := TetVolume(a, b, c, d)
		v2 := TetVolume(a.Add(o), b.Add(o), c.Add(o), d.Add(o))
		return almostEq(v1, v2, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTetCentroid(t *testing.T) {
	c := TetCentroid(Vec3{}, Vec3{4, 0, 0}, Vec3{0, 4, 0}, Vec3{0, 0, 4})
	if c != (Vec3{1, 1, 1}) {
		t.Errorf("TetCentroid = %v", c)
	}
}

func TestTetAspectRatio(t *testing.T) {
	// Regular-ish right tet: longest edge sqrt(2), shortest 1.
	ar := TetAspectRatio(Vec3{}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1})
	if !almostEq(ar, math.Sqrt2, 1e-12) {
		t.Errorf("aspect = %v, want sqrt(2)", ar)
	}
	if !math.IsInf(TetAspectRatio(Vec3{}, Vec3{}, Vec3{0, 1, 0}, Vec3{0, 0, 1}), 1) {
		t.Error("degenerate tet should have infinite aspect ratio")
	}
}

func TestAABB(t *testing.T) {
	b := NewAABB(Vec3{1, 5, 3}, Vec3{2, 0, 4})
	if b.Min != (Vec3{1, 0, 3}) || b.Max != (Vec3{2, 5, 4}) {
		t.Fatalf("NewAABB normalization: %+v", b)
	}
	if !b.Contains(Vec3{1.5, 2, 3.5}) {
		t.Error("Contains interior point failed")
	}
	if b.Contains(Vec3{0, 2, 3.5}) {
		t.Error("Contains exterior point")
	}
	if !b.Contains(b.Min) || !b.Contains(b.Max) {
		t.Error("boundary points must be contained")
	}
	e := EmptyAABB()
	if e.Contains(Vec3{}) || e.Contains(b.Min) {
		t.Error("EmptyAABB contains a point")
	}
	e2 := e.Extend(Vec3{1, 1, 1})
	if e2.Min != (Vec3{1, 1, 1}) || e2.Max != (Vec3{1, 1, 1}) || !e2.Contains(Vec3{1, 1, 1}) {
		t.Error("Extend of empty box")
	}
	if got := b.Center(); got != (Vec3{1.5, 2.5, 3.5}) {
		t.Errorf("Center = %v", got)
	}
	if got := b.Size(); got != (Vec3{1, 5, 1}) {
		t.Errorf("Size = %v", got)
	}
}

func TestSphere(t *testing.T) {
	s := Sphere{Center: Vec3{1, 1, 1}, Radius: 2}
	if !s.Contains(Vec3{1, 1, 1}) || !s.Contains(Vec3{3, 1, 1}) {
		t.Error("Contains failed on interior/boundary")
	}
	if s.Contains(Vec3{3.01, 1, 1}) {
		t.Error("Contains exterior point")
	}
}

func TestAllRegion(t *testing.T) {
	var r Region = All{}
	if !r.Contains(Vec3{1e30, -1e30, 0}) {
		t.Error("All must contain everything")
	}
}
