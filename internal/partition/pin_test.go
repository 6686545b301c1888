package partition

import (
	"hash/fnv"
	"testing"

	"plum/internal/dual"
	"plum/internal/meshgen"
)

// hashInt32s is the FNV-1a hash of xs, each entry as four little-endian
// bytes.
func hashInt32s(xs []int32) uint64 {
	h := fnv.New64a()
	b := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	h.Write(b)
	return h.Sum64()
}

// TestKeyAndFMPin pins the curve orders and the FM sweep by value: the
// Morton and Hilbert orders of a toy rotor's 7 260 centroids, and FM's
// assignment and op count from two starts on a 5 040-vertex lattice. The
// expected values were recorded once and are never edited: a change that
// moves a key, the radix order, an FM move or an FM op fails here.
func TestKeyAndFMPin(t *testing.T) {
	rp := meshgen.DefaultRotor()
	rp.NR, rp.NTheta, rp.NZ = 10, 11, 11
	g := dual.Build(meshgen.RotorDisk(rp))
	for _, c := range []struct {
		curve Method
		hash  uint64
	}{
		{MethodMortonSFC, 0x6ceda608709473ed},
		{MethodHilbertSFC, 0x78813744483ca1cd},
	} {
		if got := hashInt32s(NewSFCWorkers(g, c.curve, 0).order); got != c.hash {
			t.Errorf("%v: curve order hash %#x, pinned %#x", c.curve, got, c.hash)
		}
	}

	fx := gridGraph(20, 18, 14, 9)
	for _, c := range []struct {
		name      string
		k, passes int
		ops       int64
		hash      uint64
	}{
		{"block", 5, 2, 58500, 0xafbcccc8d30c23b5},
		{"stripes", 16, 8, 260152, 0xcd57eef08491d021},
	} {
		asg := make([]int32, fx.N)
		for v := range asg {
			if c.name == "block" {
				asg[v] = int32(v * c.k / fx.N)
			} else {
				asg[v] = int32(v % c.k)
			}
		}
		ops := fmRefine(fx, asg, c.k, c.passes)
		if got := hashInt32s(asg); ops != c.ops || got != c.hash {
			t.Errorf("%s k=%d: FM charged %d ops, assignment hash %#x; pinned %d, %#x", c.name, c.k, ops, got, c.ops, c.hash)
		}
	}
}
