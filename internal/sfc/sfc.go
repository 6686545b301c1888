// Package sfc implements space-filling-curve key generation for geometric
// mesh partitioning: Morton (Z-order) and Hilbert curves over a 21-bit
// integer lattice per axis (63-bit keys).
//
// A space-filling curve linearizes 3-D space while preserving locality:
// points that are close on the curve are close in space (the converse holds
// approximately, and strictly better for Hilbert than Morton). Sorting
// element centroids by curve key and cutting the sorted sequence into
// weighted chunks therefore yields compact, contiguous partitions in
// O(n log n) — the technique Borrell et al. and Schornbaum & Rüde use to
// partition billions of elements, versus the eigen-solver costs of
// spectral methods.
//
// The package is allocation-free at the key level and safe for concurrent
// use.
package sfc

import "plum/internal/geom"

// Bits is the lattice resolution per axis: coordinates are quantized to
// [0, 2^Bits), and three axes interleave into a 3·Bits = 63-bit key.
const Bits = 21

// maxCoord is the largest representable lattice coordinate, 2^Bits - 1.
const maxCoord = 1<<Bits - 1

// Curve selects a space-filling curve.
type Curve int

// Available curves.
const (
	// Morton is the Z-order curve: bit interleaving, cheapest to compute,
	// good locality except at octant boundaries.
	Morton Curve = iota
	// Hilbert is the Hilbert curve: unit-step continuity (consecutive keys
	// are face-adjacent lattice cells), the best locality of any known
	// curve, at a modestly higher per-key cost.
	Hilbert
)

// String implements fmt.Stringer.
func (c Curve) String() string {
	if c == Hilbert {
		return "hilbert"
	}
	return "morton"
}

// Encode returns the curve key of the lattice cell (x, y, z). Coordinates
// must be < 2^Bits; higher bits are masked off.
func (c Curve) Encode(x, y, z uint32) uint64 {
	if c == Hilbert {
		return HilbertEncode(x, y, z)
	}
	return MortonEncode(x, y, z)
}

// Decode returns the lattice cell of a curve key.
func (c Curve) Decode(key uint64) (x, y, z uint32) {
	if c == Hilbert {
		return HilbertDecode(key)
	}
	return MortonDecode(key)
}

// ---------------------------------------------------------------- Morton

// spread3 distributes the low 21 bits of v so that bit i lands at bit 3i
// (the standard magic-number dilation).
func spread3(v uint64) uint64 {
	v &= maxCoord
	v = (v | v<<32) & 0x001f00000000ffff
	v = (v | v<<16) & 0x001f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact3 is the inverse of spread3: it gathers every third bit of v into
// the low 21 bits.
func compact3(v uint64) uint64 {
	v &= 0x1249249249249249
	v = (v | v>>2) & 0x10c30c30c30c30c3
	v = (v | v>>4) & 0x100f00f00f00f00f
	v = (v | v>>8) & 0x001f0000ff0000ff
	v = (v | v>>16) & 0x001f00000000ffff
	v = (v | v>>32) & maxCoord
	return v
}

// MortonEncode interleaves the low 21 bits of each coordinate into a
// 63-bit Z-order key (x contributes the lowest bit of each triple).
func MortonEncode(x, y, z uint32) uint64 {
	return spread3(uint64(x)) | spread3(uint64(y))<<1 | spread3(uint64(z))<<2
}

// MortonDecode inverts MortonEncode.
func MortonDecode(key uint64) (x, y, z uint32) {
	return uint32(compact3(key)), uint32(compact3(key >> 1)), uint32(compact3(key >> 2))
}

// ---------------------------------------------------------------- Hilbert

// HilbertEncode returns the Hilbert-curve index of the lattice cell
// (x, y, z), using Skilling's transpose algorithm (J. Skilling,
// "Programming the Hilbert curve", AIP Conf. Proc. 707, 2004). The
// transpose form lives in the three coordinates themselves, and its bit
// planes interleave into the key, most significant plane first and x
// highest within a plane: the Morton interleave of (z, y, x).
//
// It is the key pass's hot loop, so each step is branch-free: with set
// all ones when the axis's bit b is 1, "invert x's low bits if set, else
// exchange them with the axis's" is x ^= low&set, then the exchange
// masked by ^set.
func HilbertEncode(x, y, z uint32) uint64 {
	x, y, z = x&maxCoord, y&maxCoord, z&maxCoord

	// Inverse undo of the excess work (top bit down to bit 1).
	for b := Bits - 1; b > 0; b-- {
		low := uint32(1)<<b - 1
		x ^= low & -(x >> b & 1)
		set := -(y >> b & 1)
		t := (x ^ y) & low &^ set
		x ^= t ^ low&set
		y ^= t
		set = -(z >> b & 1)
		t = (x ^ z) & low &^ set
		x ^= t ^ low&set
		z ^= t
	}
	// Gray encode. The correction t XORs 2^b − 1 over every set bit b ≥ 1
	// of z, so bit j of t is the parity of z's bits above j: the inverse
	// Gray code of z>>1.
	y ^= x
	z ^= y
	t := z >> 1
	for s := 1; s < Bits; s <<= 1 {
		t ^= t >> s
	}
	return MortonEncode(z^t, y^t, x^t)
}

// HilbertDecode inverts HilbertEncode.
func HilbertDecode(key uint64) (x, y, z uint32) {
	z, y, x = MortonDecode(key)

	// Gray decode by H ^ (H/2).
	t := z >> 1
	z ^= y
	y ^= x
	x ^= t
	// Undo the excess work (bit 1 up to the top bit).
	for q := uint32(2); q != 1<<Bits; q <<= 1 {
		p := q - 1
		if z&q != 0 {
			x ^= p
		} else {
			t := (x ^ z) & p
			x ^= t
			z ^= t
		}
		if y&q != 0 {
			x ^= p
		} else {
			t := (x ^ y) & p
			x ^= t
			y ^= t
		}
		if x&q != 0 {
			x ^= p
		}
	}
	return x, y, z
}

// ------------------------------------------------------------ quantizer

// Quantizer maps points inside a bounding box onto the integer lattice.
// Each axis is scaled independently so anisotropic domains (like the
// rotor's thin annulus) use the full key resolution.
type Quantizer struct {
	origin geom.Vec3
	scale  geom.Vec3 // lattice cells per unit length, per axis
}

// NewQuantizer returns a quantizer for points inside b. Degenerate axes
// (zero extent) map to lattice coordinate 0.
func NewQuantizer(b geom.AABB) Quantizer {
	q := Quantizer{origin: b.Min}
	sz := b.Size()
	if sz.X > 0 {
		q.scale.X = maxCoord / sz.X
	}
	if sz.Y > 0 {
		q.scale.Y = maxCoord / sz.Y
	}
	if sz.Z > 0 {
		q.scale.Z = maxCoord / sz.Z
	}
	return q
}

// Cell returns the lattice cell containing p. Points outside the box are
// clamped to the lattice boundary.
func (q Quantizer) Cell(p geom.Vec3) (x, y, z uint32) {
	return clampCoord((p.X - q.origin.X) * q.scale.X),
		clampCoord((p.Y - q.origin.Y) * q.scale.Y),
		clampCoord((p.Z - q.origin.Z) * q.scale.Z)
}

func clampCoord(v float64) uint32 {
	if v <= 0 {
		return 0
	}
	if v >= maxCoord {
		return maxCoord
	}
	return uint32(v)
}

// Key returns the curve key of point p under quantizer q.
func (q Quantizer) Key(c Curve, p geom.Vec3) uint64 {
	x, y, z := q.Cell(p)
	return c.Encode(x, y, z)
}

// Keys computes the curve keys of a point set, quantized over the set's
// own bounding box, in one serial pass: the partitioner's key
// generation.
func Keys(c Curve, pts []geom.Vec3) []uint64 {
	b := geom.EmptyAABB()
	for _, p := range pts {
		b = b.Extend(p)
	}
	q := NewQuantizer(b)
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = q.Key(c, p)
	}
	return keys
}
