// Package adapt implements the 3D_TAG tetrahedral mesh adaption scheme of
// Biswas & Strawn as parallelized in Biswas, Oliker & Sohn (SC'96): edges
// are targeted for refinement or coarsening, element edge-marking patterns
// are upgraded to one of the three valid subdivision types (1:2, 1:4,
// 1:8) by an iterative propagation process, marked edges are bisected, and
// elements are subdivided independently according to their final binary
// patterns. The propagation is the propagate engine's loop, run on World:
// Refine closes every round's marks on one rank, and the distributed
// layer closes the first round on its P ranks and hands the closed marks
// to Subdivide. Coarsening removes sibling groups whose edges are targeted for
// removal, reinstates their parents, and re-invokes refinement to restore
// a valid conforming mesh. Edges cannot be coarsened beyond the initial
// mesh.
package adapt

import "math/bits"

// Pattern is the 6-bit element edge-marking pattern of the paper: bit i is
// set when local edge i (see mesh.ElemEdgeVerts) is targeted for
// subdivision.
type Pattern uint8

// The three allowed subdivision shapes.
const (
	// PatternNone leaves the element untouched.
	PatternNone Pattern = 0
	// PatternFull is the isotropic 1:8 subdivision (all six edges).
	PatternFull Pattern = 0x3F
)

// facePatterns lists the four valid 1:4 patterns — the three edges of one
// face (mesh.ElemFaceEdges).
var facePatterns = [4]Pattern{
	1<<0 | 1<<1 | 1<<3, // face (0,1,2)
	1<<0 | 1<<2 | 1<<4, // face (0,1,3)
	1<<1 | 1<<2 | 1<<5, // face (0,2,3)
	1<<3 | 1<<4 | 1<<5, // face (1,2,3)
}

// Kind classifies a valid pattern.
type Kind uint8

// Subdivision kinds, ordered by how many children they produce.
const (
	KindNone    Kind = iota // no subdivision
	KindHalf                // 1:2, one bisected edge
	KindQuarter             // 1:4, three bisected edges of one face
	KindFull                // 1:8, all six edges bisected
)

// Children returns how many child elements a subdivision of kind k creates.
func (k Kind) Children() int {
	return [...]int{KindNone: 0, KindHalf: 2, KindQuarter: 4, KindFull: 8}[k]
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindHalf:
		return "1:2"
	case KindQuarter:
		return "1:4"
	case KindFull:
		return "1:8"
	}
	return "invalid"
}

// Valid reports whether p is one of the allowed subdivision patterns:
// no edges, exactly one edge, the three edges of one face, or all six.
func (p Pattern) Valid() bool {
	switch bits.OnesCount8(uint8(p)) {
	case 0, 1:
		return true
	case 3:
		for _, fp := range facePatterns {
			if p == fp {
				return true
			}
		}
		return false
	case 6:
		return true
	}
	return false
}

// Kind returns the subdivision kind of a valid pattern. It panics on
// invalid patterns (callers must Upgrade first).
func (p Pattern) Kind() Kind {
	switch bits.OnesCount8(uint8(p)) {
	case 0:
		return KindNone
	case 1:
		return KindHalf
	case 3:
		if p.Valid() {
			return KindQuarter
		}
	case 6:
		return KindFull
	}
	panic("adapt: Kind of invalid pattern")
}

// Upgrade returns the minimal valid pattern containing p: the paper's
// element-upgrade rule that drives marking propagation. A single marked
// edge stays 1:2; two or three marks that fit inside one face become that
// face's 1:4; anything else becomes the isotropic 1:8.
func (p Pattern) Upgrade() Pattern {
	n := bits.OnesCount8(uint8(p))
	switch {
	case n == 0 || n == 1:
		return p
	case n <= 3:
		for _, fp := range facePatterns {
			if p&^fp == 0 {
				return fp
			}
		}
		return PatternFull
	default:
		return PatternFull
	}
}

// EdgeBit returns the pattern with only local edge le set.
func EdgeBit(le int) Pattern { return Pattern(1) << le }

// Has reports whether local edge le is set in p.
func (p Pattern) Has(le int) bool { return p&(1<<le) != 0 }

// FaceOf returns the local face index of a 1:4 pattern, or -1 for other
// patterns.
func (p Pattern) FaceOf() int {
	for f, fp := range facePatterns {
		if p == fp {
			return f
		}
	}
	return -1
}

// SoleEdge returns the local edge index of a 1:2 pattern, or -1 for other
// patterns.
func (p Pattern) SoleEdge() int {
	if bits.OnesCount8(uint8(p)) != 1 {
		return -1
	}
	return bits.TrailingZeros8(uint8(p))
}
