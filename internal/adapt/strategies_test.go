package adapt

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
)

// quantileCutSort is the sort-based quantileCut the selection replaced,
// kept as its oracle: sort, then try every distinct value in ascending
// order, starting from the largest and replacing only on a strict
// improvement.
func quantileCutSort(d []float64, frac float64) float64 {
	sort.Float64s(d)
	target := frac * float64(len(d))
	best := d[len(d)-1]
	bestDiff := math.Abs(float64(len(d)) - target)
	for i := 0; i < len(d); {
		j := i
		for j < len(d) && d[j] == d[i] {
			j++
		}
		// Cutting at value d[i] includes entries [0, j).
		if diff := math.Abs(float64(j) - target); diff < bestDiff {
			best, bestDiff = d[i], diff
		}
		i = j
	}
	return best
}

// TestQuantileCutMatchesSort holds the selection to the sort, float64 for
// float64, on heavy ties, tiny inputs and every edge of the fraction
// range.
func TestQuantileCutMatchesSort(t *testing.T) {
	cases := map[string][]float64{
		"n=1":       {0.7},
		"n=2":       {0.7, 0.2},
		"n=3":       {0.3, 0.3, 0.1},
		"all equal": {2, 2, 2, 2, 2, 2, 2},
		// At frac 0.375 the target 1.5 is as far from 1 as from 2 entries,
		// and at 0.625 the target 2.5 as far from 1 as from all 4: the
		// smaller cut wins the first tie, the largest entry the second.
		"halfway":          {4, 3, 2, 1},
		"halfway from max": {2, 1, 2, 2},
	}
	// Lattice shells: midpoint distances from a grid point of a box mesh
	// tie in whole shells, Euclidean and Chebyshev alike.
	m := meshgen.Box(6, 6, 6, geom.Vec3{X: 1, Y: 1, Z: 1})
	c := geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	var euclid, cheb []float64
	eachEdgeMid(m, func(p geom.Vec3) {
		euclid = append(euclid, p.Dist(c))
		cheb = append(cheb, math.Max(math.Abs(p.X-c.X), math.Max(math.Abs(p.Y-c.Y), math.Abs(p.Z-c.Z))))
	})
	cases["lattice euclidean"], cases["lattice chebyshev"] = euclid, cheb
	rng := rand.New(rand.NewSource(3))
	few := make([]float64, 500)
	for i := range few {
		few[i] = float64(rng.Intn(7))
	}
	cases["seven values"] = few

	for name, d := range cases {
		n := float64(len(d))
		for _, frac := range []float64{0, 1 / n, 0.05, 0.35, 0.375, 0.5, 0.625, 1} {
			got := quantileCut(append([]float64(nil), d...), frac)
			want := quantileCutSort(append([]float64(nil), d...), frac)
			if got != want {
				t.Errorf("%s (n=%d) frac %g: selection cuts at %v, sort at %v", name, len(d), frac, got, want)
			}
		}
	}
}

// TestFractionRegionEmptyMesh sizes both regions on a mesh with no active
// edge: a zero-size region at the centre, not an index panic.
func TestFractionRegionEmptyMesh(t *testing.T) {
	m := mesh.New(0)
	c := geom.Vec3{X: 1, Y: 2, Z: 3}
	if s := SphereForFraction(m, c, 0.05); s.Center != c || s.Radius != 0 {
		t.Errorf("sphere %+v, want radius 0 at %v", s, c)
	}
	if b := BoxForFraction(m, c, 0.35); b.Min != c || b.Max != c {
		t.Errorf("box %+v, want the point %v", b, c)
	}
}
