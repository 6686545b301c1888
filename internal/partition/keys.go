package partition

import "plum/internal/geom"

// Curve keys: Morton (Z-order) and Hilbert keys over a 21-bit integer
// lattice per axis (63-bit keys), the key generation of the curve
// methods.
//
// A space-filling curve linearizes 3-D space while preserving locality:
// points that are close on the curve are close in space (the converse holds
// approximately, and strictly better for Hilbert than Morton). Sorting
// element centroids by curve key and cutting the sorted sequence into
// weighted chunks therefore yields compact, contiguous partitions in
// O(n log n) — the technique Borrell et al. and Schornbaum & Rüde use to
// partition billions of elements, versus the eigen-solver costs of
// spectral methods. Morton is bit interleaving, cheapest to compute, with
// good locality except at octant boundaries; Hilbert has unit-step
// continuity (consecutive keys are face-adjacent lattice cells), the best
// locality of any known curve, at a modestly higher per-key cost.

// keyBits is the lattice resolution per axis: coordinates are quantized
// to [0, 2^keyBits), and three axes interleave into a 3·keyBits = 63-bit
// key.
const keyBits = 21

// maxCoord is the largest representable lattice coordinate,
// 2^keyBits - 1.
const maxCoord = 1<<keyBits - 1

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

// mortonEncode interleaves the low 21 bits of each coordinate into a
// 63-bit Z-order key (x contributes the lowest bit of each triple).
func mortonEncode(x, y, z uint32) uint64 {
	return spread3(uint64(x)) | spread3(uint64(y))<<1 | spread3(uint64(z))<<2
}

// hilbertEncode returns the Hilbert-curve index of the lattice cell
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
func hilbertEncode(x, y, z uint32) uint64 {
	x, y, z = x&maxCoord, y&maxCoord, z&maxCoord

	// Inverse undo of the excess work (top bit down to bit 1).
	for b := keyBits - 1; b > 0; b-- {
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
	for s := 1; s < keyBits; s <<= 1 {
		t ^= t >> s
	}
	return mortonEncode(z^t, y^t, x^t)
}

// quantizer maps points inside a bounding box onto the integer lattice.
// Each axis is scaled independently so anisotropic domains (like the
// rotor's thin annulus) use the full key resolution.
type quantizer struct {
	origin geom.Vec3
	scale  geom.Vec3 // lattice cells per unit length, per axis
}

// newQuantizer returns a quantizer for points inside b. Degenerate axes
// (zero extent) map to lattice coordinate 0.
func newQuantizer(b geom.AABB) quantizer {
	q := quantizer{origin: b.Min}
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

// cell returns the lattice cell containing p. Points outside the box are
// clamped to the lattice boundary.
func (q quantizer) cell(p geom.Vec3) (x, y, z uint32) {
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

// curveKeys computes the keys of a point set along the curve of method m
// (Hilbert for MethodHilbertSFC, Morton otherwise), quantized over the
// set's own bounding box, in one serial pass: the curve methods' key
// generation.
func curveKeys(m Method, pts []geom.Vec3) []uint64 {
	b := geom.EmptyAABB()
	for _, p := range pts {
		b = b.Extend(p)
	}
	q := newQuantizer(b)
	keys := make([]uint64, len(pts))
	if m == MethodHilbertSFC {
		for i, p := range pts {
			keys[i] = hilbertEncode(q.cell(p))
		}
	} else {
		for i, p := range pts {
			keys[i] = mortonEncode(q.cell(p))
		}
	}
	return keys
}
