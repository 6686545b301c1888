package adapt

import (
	"math"
	"math/rand"
	"sort"

	"plum/internal/geom"
	"plum/internal/mesh"
)

// This file implements the three edge-marking strategies of the paper's
// evaluation (Sec. "Results") plus error-indicator-driven marking:
//
//	Local_1: ≈5% of the edges targeted inside a single spherical region;
//	Local_2: ≈35% of the edges targeted inside a single rectangular region;
//	Random:  edges targeted at random so mesh sizes match Local_2.

// MarkRegion marks every active edge whose midpoint lies in r with mk and
// returns how many edges were marked.
func (a *Adaptor) MarkRegion(r geom.Region, mk Mark) int {
	n := 0
	for ei := range a.M.Edges {
		e := mesh.EdgeID(ei)
		if !a.activeEdge(e) {
			continue
		}
		if r.Contains(a.M.EdgeMid(e)) {
			a.SetMark(e, mk)
			n++
		}
	}
	return n
}

// MarkRandom marks ⌈frac·(active edges)⌉ uniformly random active edges
// with mk using the given seed, and returns how many were marked.
func (a *Adaptor) MarkRandom(frac float64, mk Mark, seed int64) int {
	var active []mesh.EdgeID
	for ei := range a.M.Edges {
		e := mesh.EdgeID(ei)
		if a.activeEdge(e) {
			active = append(active, e)
		}
	}
	want := int(math.Ceil(frac * float64(len(active))))
	if want > len(active) {
		want = len(active)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
	for _, e := range active[:want] {
		a.SetMark(e, mk)
	}
	return want
}

// MarkError applies the paper's error-indicator rule: edges whose error
// exceeds hi are targeted for subdivision; edges whose error lies below lo
// are targeted for removal. err is indexed by EdgeID; missing entries are
// treated as zero. It returns (refined, coarsened) counts.
func (a *Adaptor) MarkError(err []float64, hi, lo float64) (nRefine, nCoarsen int) {
	for ei := range a.M.Edges {
		e := mesh.EdgeID(ei)
		if !a.activeEdge(e) {
			continue
		}
		v := 0.0
		if ei < len(err) {
			v = err[ei]
		}
		switch {
		case v > hi:
			a.SetMark(e, MarkRefine)
			nRefine++
		case v < lo:
			a.SetMark(e, MarkCoarsen)
			nCoarsen++
		}
	}
	return nRefine, nCoarsen
}

// eachEdgeMid calls fn with the midpoint of every active edge, in edge
// order.
func eachEdgeMid(m *mesh.Mesh, fn func(geom.Vec3)) {
	for ei := range m.Edges {
		ed := &m.Edges[ei]
		if ed.Dead || ed.Bisected() {
			continue
		}
		fn(m.EdgeMid(mesh.EdgeID(ei)))
	}
}

// quantileCut returns the cut value v such that the number of entries of d
// with d[i] <= v is as close as possible to frac*len(d). Unlike a plain
// order statistic it is robust to heavy ties (lattice meshes produce whole
// shells of equal distances).
func quantileCut(d []float64, frac float64) float64 {
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

// SphereForFraction returns a sphere centred at c containing approximately
// frac of the mesh's active edge midpoints: the radius is the tie-aware
// frac-quantile of midpoint distances from c. Used to size the Local_1
// region.
func SphereForFraction(m *mesh.Mesh, c geom.Vec3, frac float64) geom.Sphere {
	d := make([]float64, 0, m.NumActiveEdges())
	eachEdgeMid(m, func(p geom.Vec3) { d = append(d, p.Dist(c)) })
	return geom.Sphere{Center: c, Radius: quantileCut(d, frac)}
}

// BoxForFraction returns an axis-aligned box centred at c containing
// approximately frac of the mesh's active edge midpoints: the half-extent
// is the frac-quantile of the Chebyshev (max-axis) distances from c,
// scaled per-axis by the mesh bounding-box proportions. Used to size the
// Local_2 region.
func BoxForFraction(m *mesh.Mesh, c geom.Vec3, frac float64) geom.AABB {
	bb := geom.EmptyAABB()
	eachEdgeMid(m, func(p geom.Vec3) { bb = bb.Extend(p) })
	size := bb.Size()
	scale := geom.Vec3{X: math.Max(size.X, 1e-300), Y: math.Max(size.Y, 1e-300), Z: math.Max(size.Z, 1e-300)}
	d := make([]float64, 0, m.NumActiveEdges())
	eachEdgeMid(m, func(p geom.Vec3) {
		dx := math.Abs(p.X-c.X) / scale.X
		dy := math.Abs(p.Y-c.Y) / scale.Y
		dz := math.Abs(p.Z-c.Z) / scale.Z
		d = append(d, math.Max(dx, math.Max(dy, dz)))
	})
	h := quantileCut(d, frac)
	ext := geom.Vec3{X: h * scale.X, Y: h * scale.Y, Z: h * scale.Z}
	return geom.NewAABB(c.Sub(ext), c.Add(ext))
}

// Strategy identifies one of the paper's three edge-marking scenarios.
type Strategy int

// The paper's marking strategies.
const (
	// Local1 targets ≈5% of the edges inside a single spherical region;
	// coarsening then undoes all of the refinement.
	Local1 Strategy = iota
	// Local2 targets ≈35% of the edges inside a single rectangular
	// region; coarsening is performed within a rectangular subregion.
	Local2
	// Random targets edges randomly so the mesh sizes after refinement
	// and coarsening approximately equal those of Local2.
	Random
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Local1:
		return "Local_1"
	case Local2:
		return "Local_2"
	case Random:
		return "Random"
	}
	return "unknown"
}

// Strategies lists the three paper scenarios in presentation order.
var Strategies = []Strategy{Local1, Local2, Random}

// MarkStrategyRefine applies the strategy's refinement marking to the
// current mesh and returns the number of edges marked. seed only affects
// Random.
func (a *Adaptor) MarkStrategyRefine(s Strategy, seed int64) int {
	switch s {
	case Local1:
		c := meshCenter(a.M)
		return a.MarkRegion(SphereForFraction(a.M, c, 0.05), MarkRefine)
	case Local2:
		c := meshCenter(a.M)
		return a.MarkRegion(BoxForFraction(a.M, c, 0.35), MarkRefine)
	case Random:
		// The paper targets edges randomly "such that the mesh sizes
		// after both refinement and coarsening were approximately equal
		// to those obtained in the Local_2 case". Random marks amplify
		// heavily through pattern upgrades (scattered marks push most
		// touched elements to 1:8), so the raw rate is calibrated well
		// below Local_2's 35%: marking 8% of edges yields ≈3.4× element
		// growth on the paper-scale mesh, matching Local_2.
		return a.MarkRandom(randomRefineFrac, MarkRefine, seed)
	}
	return 0
}

// Calibrated Random-strategy rates (see MarkStrategyRefine and
// MarkStrategyCoarsen).
const (
	randomRefineFrac  = 0.08
	randomCoarsenFrac = 0.17
)

// MarkStrategyCoarsen applies the strategy's coarsening marking (after its
// refinement step) and returns the number of edges marked:
// Local_1 undoes all refinement; Local_2 coarsens a rectangular subregion
// of the refined zone; Random coarsens randomly at a rate chosen so the
// final size roughly matches Local_2's.
func (a *Adaptor) MarkStrategyCoarsen(s Strategy, seed int64) int {
	switch s {
	case Local1:
		return a.MarkRegion(geom.All{}, MarkCoarsen)
	case Local2:
		c := meshCenter(a.M)
		// Coarsen within a subregion holding roughly half the (now much
		// denser) refined zone.
		return a.MarkRegion(BoxForFraction(a.M, c, 0.5), MarkCoarsen)
	case Random:
		// Scattered coarsen marks are mostly undone by the conformity
		// re-refinement (a removed group bordering a surviving refined
		// group is immediately re-split), so the effective shrink has a
		// sharp transition in the marking rate. 17% sits on the
		// transition and halves the refined mesh, matching the paper's
		// Random row of Table 1.
		return a.MarkRandom(randomCoarsenFrac, MarkCoarsen, seed+1)
	}
	return 0
}

// meshCenter returns the mass centroid of the live vertices. Unlike the
// bounding-box centre this always sits inside (or very near) the mesh
// material, which matters for hollow domains such as the rotor-disk
// annulus.
func meshCenter(m *mesh.Mesh) geom.Vec3 {
	var c geom.Vec3
	n := 0.0
	for i := range m.Verts {
		if !m.Verts[i].Dead {
			c = c.Add(m.Verts[i].Pos)
			n++
		}
	}
	if n == 0 {
		return geom.Vec3{}
	}
	return c.Scale(1 / n)
}

// InterpolateBisections extends a vertex-indexed solution field across the
// mesh's bisection log: the value at each midpoint is the linear
// interpolation (average) of its edge endpoints, applied in creation order
// (the paper linearly interpolates the solution vector at the mid-point
// from the two points that constitute the original edge). The returned
// slice has one entry per mesh vertex.
func InterpolateBisections(m *mesh.Mesh, field []float64) []float64 {
	out := make([]float64, len(m.Verts))
	copy(out, field)
	for _, b := range m.Bisections {
		out[b.Mid] = 0.5 * (out[b.A] + out[b.B])
	}
	return out
}
