package dual

import (
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
)

func TestBuildUnitCube(t *testing.T) {
	m := meshgen.UnitCube()
	g := Build(m)
	if g.N != 6 {
		t.Fatalf("N = %d, want 6", g.N)
	}
	// Kuhn cube: the 6 path tets form a cycle around the main diagonal —
	// every tet shares internal faces with exactly 2 others.
	for v := 0; v < g.N; v++ {
		if got := len(g.Adj[v]); got != 2 {
			t.Errorf("dual vertex %d degree = %d, want 2", v, got)
		}
	}
	if g.NumEdges() != 6 {
		t.Errorf("dual edges = %d, want 6", g.NumEdges())
	}
	for v := 0; v < g.N; v++ {
		if g.Wcomp[v] != 1 || g.Wremap[v] != 1 {
			t.Errorf("vertex %d weights (%d,%d), want (1,1)", v, g.Wcomp[v], g.Wremap[v])
		}
	}
}

func TestDualInvariantUnderAdaption(t *testing.T) {
	// The paper's central claim: the dual graph's complexity and
	// connectivity remain constant during adaptive computation.
	m := meshgen.SmallBox()
	g := Build(m)
	n0, e0 := g.N, g.NumEdges()

	a := adapt.New(m)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Radius: 0.4}, adapt.MarkRefine)
	a.Refine()
	g.UpdateWeights(m)
	if g.N != n0 || g.NumEdges() != e0 {
		t.Fatalf("dual changed under refinement: (%d,%d) -> (%d,%d)", n0, e0, g.N, g.NumEdges())
	}

	// Rebuilding from the adapted mesh gives the same graph.
	g2 := Build(m)
	if g2.N != n0 || g2.NumEdges() != e0 {
		t.Fatalf("rebuilt dual differs: (%d,%d)", g2.N, g2.NumEdges())
	}

	a.MarkRegion(geom.All{}, adapt.MarkCoarsen)
	a.Coarsen()
	g.UpdateWeights(m)
	if g.N != n0 || g.NumEdges() != e0 {
		t.Fatalf("dual changed under coarsening")
	}
}

func TestWeightsAfterRefinement(t *testing.T) {
	m := meshgen.UnitCube()
	g := Build(m)
	a := adapt.New(m)
	// Fully refine everything once: every root gets 8 leaves, tree of 9.
	a.MarkRegion(geom.All{}, adapt.MarkRefine)
	a.Refine()
	g.UpdateWeights(m)
	for v := 0; v < g.N; v++ {
		if g.Wcomp[v] != 8 {
			t.Errorf("vertex %d Wcomp = %d, want 8 (leaves only)", v, g.Wcomp[v])
		}
		if g.Wremap[v] != 9 {
			t.Errorf("vertex %d Wremap = %d, want 9 (whole tree)", v, g.Wremap[v])
		}
	}
	if g.TotalWcomp() != int64(m.NumActiveElems()) {
		t.Errorf("TotalWcomp %d != active elems %d", g.TotalWcomp(), m.NumActiveElems())
	}
	if g.TotalWremap() != int64(m.NumElemsTotal()) {
		t.Errorf("TotalWremap %d != total elems %d", g.TotalWremap(), m.NumElemsTotal())
	}
}

func TestWeightsAfterCoarsening(t *testing.T) {
	m := meshgen.UnitCube()
	g := Build(m)
	a := adapt.New(m)
	a.MarkRegion(geom.All{}, adapt.MarkRefine)
	a.Refine()
	a.MarkRegion(geom.All{}, adapt.MarkCoarsen)
	a.Coarsen()
	g.UpdateWeights(m)
	for v := 0; v < g.N; v++ {
		if g.Wcomp[v] != 1 || g.Wremap[v] != 1 {
			t.Errorf("vertex %d weights (%d,%d) after full coarsen, want (1,1)", v, g.Wcomp[v], g.Wremap[v])
		}
	}
}

func TestDualAdjacencySymmetric(t *testing.T) {
	m := meshgen.SmallBox()
	g := Build(m)
	for v := 0; v < g.N; v++ {
		if len(g.Adj[v]) > 4 {
			t.Fatalf("tet %d has %d face neighbours (max 4)", v, len(g.Adj[v]))
		}
		for _, w := range g.Adj[v] {
			found := false
			for _, x := range g.Adj[w] {
				if x == int32(v) {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d -> %d", v, w)
			}
		}
	}
}

func TestBoundaryTetsHaveFewerNeighbors(t *testing.T) {
	m := meshgen.SmallBox()
	g := Build(m)
	nBoundary := 0
	for v := 0; v < g.N; v++ {
		if len(g.Adj[v]) < 4 {
			nBoundary++
		}
	}
	if nBoundary == 0 {
		t.Error("no boundary tets found")
	}
	// Total face count consistency: 4*N = 2*internal + boundary.
	internal := g.NumEdges()
	boundary := 4*g.N - 2*internal
	if boundary != m.NumActiveFaces() {
		t.Errorf("dual implies %d boundary faces, mesh has %d", boundary, m.NumActiveFaces())
	}
}

func TestUpdateWeightsPanicsOnWrongMesh(t *testing.T) {
	m := meshgen.UnitCube()
	g := Build(m)
	other := meshgen.SmallBox()
	defer func() {
		if recover() == nil {
			t.Error("UpdateWeights on mismatched mesh must panic")
		}
	}()
	g.UpdateWeights(other)
}

var _ = mesh.InvalidElem // keep import for doc-reference clarity
