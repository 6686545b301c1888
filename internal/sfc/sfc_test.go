package sfc

import (
	"math/rand"
	"testing"

	"plum/internal/geom"
)

func TestMortonKnownValues(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		key     uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
		{maxCoord, maxCoord, maxCoord, 1<<63 - 1},
	}
	for _, c := range cases {
		if got := MortonEncode(c.x, c.y, c.z); got != c.key {
			t.Errorf("MortonEncode(%d,%d,%d) = %#x, want %#x", c.x, c.y, c.z, got, c.key)
		}
		x, y, z := MortonDecode(c.key)
		if x != c.x || y != c.y || z != c.z {
			t.Errorf("MortonDecode(%#x) = (%d,%d,%d), want (%d,%d,%d)", c.key, x, y, z, c.x, c.y, c.z)
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []Curve{Morton, Hilbert} {
		decode := MortonDecode
		if c == Hilbert {
			decode = HilbertDecode
		}
		for i := 0; i < 10000; i++ {
			x := rng.Uint32() & maxCoord
			y := rng.Uint32() & maxCoord
			z := rng.Uint32() & maxCoord
			gx, gy, gz := decode(c.Encode(x, y, z))
			if gx != x || gy != y || gz != z {
				t.Fatalf("%v round trip (%d,%d,%d) -> (%d,%d,%d)", c, x, y, z, gx, gy, gz)
			}
			if c == Hilbert && HilbertEncode(x, y, z) != refHilbertEncode(x, y, z) {
				t.Fatalf("HilbertEncode(%d,%d,%d) differs from the array-form reference", x, y, z)
			}
		}
	}
}

// TestHilbertUnitSteps verifies the defining property of the Hilbert
// curve: consecutive indices are face-adjacent lattice cells (exactly one
// coordinate changes, by exactly one).
func TestHilbertUnitSteps(t *testing.T) {
	px, py, pz := HilbertDecode(0)
	for key := uint64(1); key < 1<<12; key++ {
		x, y, z := HilbertDecode(key)
		d := absDiff(x, px) + absDiff(y, py) + absDiff(z, pz)
		if d != 1 {
			t.Fatalf("keys %d->%d jump by %d: (%d,%d,%d)->(%d,%d,%d)",
				key-1, key, d, px, py, pz, x, y, z)
		}
		px, py, pz = x, y, z
	}
}

// TestHilbertIsPermutation checks that on a small sub-lattice every cell
// is visited exactly once (encode is injective, decode its inverse).
func TestHilbertIsPermutation(t *testing.T) {
	const n = 16 // 16^3 cells
	seen := make(map[uint64][3]uint32, n*n*n)
	for x := uint32(0); x < n; x++ {
		for y := uint32(0); y < n; y++ {
			for z := uint32(0); z < n; z++ {
				k := HilbertEncode(x, y, z)
				if prev, dup := seen[k]; dup {
					t.Fatalf("key collision: (%d,%d,%d) and %v -> %#x", x, y, z, prev, k)
				}
				seen[k] = [3]uint32{x, y, z}
			}
		}
	}
}

func TestMortonMasksHighBits(t *testing.T) {
	// Bits above the lattice resolution must not corrupt the key.
	if MortonEncode(1<<Bits|5, 3, 0) != MortonEncode(5, 3, 0) {
		t.Error("high bits leaked into the Morton key")
	}
	if HilbertEncode(1<<Bits|5, 3, 0) != HilbertEncode(5, 3, 0) {
		t.Error("high bits leaked into the Hilbert key")
	}
}

func TestQuantizer(t *testing.T) {
	b := geom.NewAABB(geom.Vec3{X: -1, Y: 0, Z: 2}, geom.Vec3{X: 1, Y: 4, Z: 3})
	q := NewQuantizer(b)
	x, y, z := q.Cell(b.Min)
	if x != 0 || y != 0 || z != 0 {
		t.Errorf("min corner -> (%d,%d,%d), want origin", x, y, z)
	}
	x, y, z = q.Cell(b.Max)
	if x != maxCoord || y != maxCoord || z != maxCoord {
		t.Errorf("max corner -> (%d,%d,%d), want lattice max", x, y, z)
	}
	// Outside points clamp rather than wrap.
	x, _, _ = q.Cell(geom.Vec3{X: 99, Y: -99, Z: 2.5})
	if x != maxCoord {
		t.Errorf("overflow clamped to %d, want %d", x, maxCoord)
	}
}

func TestQuantizerDegenerateAxis(t *testing.T) {
	// A planar point set (zero Z extent) must still produce usable keys.
	b := geom.NewAABB(geom.Vec3{}, geom.Vec3{X: 1, Y: 1})
	q := NewQuantizer(b)
	_, _, z := q.Cell(geom.Vec3{X: 0.5, Y: 0.5})
	if z != 0 {
		t.Errorf("degenerate axis -> %d, want 0", z)
	}
}

// TestKeysLocality checks the property partitioning relies on: sorting by
// key groups spatially close points. Two clusters far apart must occupy
// disjoint key ranges.
func TestKeysLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pts []geom.Vec3
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Vec3{X: rng.Float64() * 0.1, Y: rng.Float64() * 0.1, Z: rng.Float64() * 0.1})
	}
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Vec3{X: 10 + rng.Float64()*0.1, Y: 10 + rng.Float64()*0.1, Z: 10 + rng.Float64()*0.1})
	}
	for _, c := range []Curve{Morton, Hilbert} {
		keys := Keys(c, pts)
		var loMax, hiMin uint64 = 0, 1 << 63
		for i, k := range keys {
			if i < 100 && k > loMax {
				loMax = k
			}
			if i >= 100 && k < hiMin {
				hiMin = k
			}
		}
		if loMax >= hiMin {
			t.Errorf("%v: clusters overlap in key space (%#x >= %#x)", c, loMax, hiMin)
		}
	}
}

func TestCurveString(t *testing.T) {
	if Morton.String() != "morton" || Hilbert.String() != "hilbert" {
		t.Error("curve names wrong")
	}
}

// refHilbertEncode is Skilling's transpose algorithm in its textbook
// array form, with the bit planes interleaved one bit at a time: the
// reference HilbertEncode's register-resident version must equal.
func refHilbertEncode(x, y, z uint32) uint64 {
	X := [3]uint32{x & maxCoord, y & maxCoord, z & maxCoord}
	for q := uint32(1 << (Bits - 1)); q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < 3; i++ {
			if X[i]&q != 0 {
				X[0] ^= p
			} else {
				t := (X[0] ^ X[i]) & p
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	for i := 1; i < 3; i++ {
		X[i] ^= X[i-1]
	}
	var t uint32
	for q := uint32(1 << (Bits - 1)); q > 1; q >>= 1 {
		if X[2]&q != 0 {
			t ^= q - 1
		}
	}
	var key uint64
	for bit := Bits - 1; bit >= 0; bit-- {
		for i := 0; i < 3; i++ {
			key = key<<1 | uint64((X[i]^t)>>uint(bit)&1)
		}
	}
	return key
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// FuzzHilbertRoundTrip fuzzes the encode↔decode round trip of the Hilbert
// kernel over the whole lattice, and the encoder against the array-form
// reference.
func FuzzHilbertRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(1), uint32(2), uint32(3))
	f.Add(uint32(maxCoord), uint32(maxCoord), uint32(maxCoord))
	f.Add(uint32(1<<20), uint32(1<<10), uint32(1))
	f.Fuzz(func(t *testing.T, x, y, z uint32) {
		key := HilbertEncode(x, y, z)
		if ref := refHilbertEncode(x, y, z); key != ref {
			t.Fatalf("HilbertEncode(%d,%d,%d) = %#x, reference %#x", x, y, z, key, ref)
		}
		x, y, z = x&maxCoord, y&maxCoord, z&maxCoord
		if key >= 1<<63 {
			t.Fatalf("key %#x exceeds 63 bits", key)
		}
		gx, gy, gz := HilbertDecode(key)
		if gx != x || gy != y || gz != z {
			t.Fatalf("round trip (%d,%d,%d) -> %#x -> (%d,%d,%d)", x, y, z, key, gx, gy, gz)
		}
	})
}

// FuzzMortonRoundTrip fuzzes the Morton kernel the same way, and checks
// the monotone-per-axis property (growing one coordinate grows the key).
func FuzzMortonRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(maxCoord), uint32(0), uint32(maxCoord))
	f.Fuzz(func(t *testing.T, x, y, z uint32) {
		x, y, z = x&maxCoord, y&maxCoord, z&maxCoord
		key := MortonEncode(x, y, z)
		gx, gy, gz := MortonDecode(key)
		if gx != x || gy != y || gz != z {
			t.Fatalf("round trip (%d,%d,%d) -> %#x -> (%d,%d,%d)", x, y, z, key, gx, gy, gz)
		}
		if x < maxCoord && MortonEncode(x+1, y, z) <= key {
			t.Fatalf("key not monotone in x at (%d,%d,%d)", x, y, z)
		}
	})
}
