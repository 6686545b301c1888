package dual

import (
	"math/rand"
	"slices"
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
		if got := len(g.Nbrs(int32(v))); got != 2 {
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
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	for v := range int32(g.N) {
		if len(g.Nbrs(v)) > 4 {
			t.Fatalf("tet %d has %d face neighbours (max 4)", v, len(g.Nbrs(v)))
		}
	}
}

// TestCheckDetectsBrokenCSR corrupts a valid graph one invariant at a
// time; Check must name each.
func TestCheckDetectsBrokenCSR(t *testing.T) {
	for _, c := range []struct {
		name   string
		break_ func(g *Graph)
	}{
		{"short Xadj", func(g *Graph) { g.Xadj = g.Xadj[:g.N] }},
		{"Xadj past Adjncy", func(g *Graph) { g.Adjncy = g.Adjncy[:len(g.Adjncy)-1] }},
		{"falling Xadj", func(g *Graph) { g.Xadj[1], g.Xadj[2] = g.Xadj[2], g.Xadj[1] }},
		{"self-loop", func(g *Graph) { g.Adjncy[0] = 0 }},
		{"out of range", func(g *Graph) { g.Adjncy[0] = int32(g.N) }},
		{"repeat", func(g *Graph) { g.Adjncy[1] = g.Adjncy[0] }},
		{"asymmetric", func(g *Graph) { g.Adjncy[g.Xadj[1]] = 3 }},
		{"short Wcomp", func(g *Graph) { g.Wcomp = g.Wcomp[1:] }},
	} {
		g := Build(meshgen.UnitCube())
		if err := g.Check(); err != nil {
			t.Fatalf("%s: intact graph fails: %v", c.name, err)
		}
		c.break_(g)
		if g.Check() == nil {
			t.Errorf("%s: Check passed a broken graph", c.name)
		}
	}
}

func TestBoundaryTetsHaveFewerNeighbors(t *testing.T) {
	m := meshgen.SmallBox()
	g := Build(m)
	nBoundary := 0
	for v := 0; v < g.N; v++ {
		if len(g.Nbrs(int32(v))) < 4 {
			nBoundary++
		}
	}
	if nBoundary == 0 {
		t.Error("no boundary tets found")
	}
	// Total face count consistency: 4*N = 2*internal + boundary.
	internal := g.NumEdges()
	boundary := 4*g.N - 2*internal
	if boundary != m.Stats().ActiveFaces {
		t.Errorf("dual implies %d boundary faces, mesh has %d", boundary, m.Stats().ActiveFaces)
	}
}

// mapAdjacency is the hash-map face matcher Build replaced, kept as its
// oracle: faces are keyed by their sorted vertex triple, a face meeting
// an open entry closes it, and both rows are appended at that moment.
func mapAdjacency(m *mesh.Mesh) [][]int32 {
	n := m.NumRoots()
	adj := make([][]int32, n)
	faces := make(map[[3]mesh.VertID]int32, 2*n)
	for i := range n {
		t := &m.Elems[i]
		for _, fv := range mesh.ElemFaceVerts {
			k := [3]mesh.VertID{t.V[fv[0]], t.V[fv[1]], t.V[fv[2]]}
			slices.Sort(k[:])
			if j, ok := faces[k]; ok {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], int32(i))
				delete(faces, k)
			} else {
				faces[k] = int32(i)
			}
		}
	}
	return adj
}

// relabelVerts permutes m's vertex ids at random, in the vertex slab and
// in every element's corner list: the only vertex references Build reads.
// The generators number vertices in lattice order, so their faces'
// smallest-vertex buckets follow element order; relabelled, they do not.
func relabelVerts(m *mesh.Mesh, seed int64) {
	perm := rand.New(rand.NewSource(seed)).Perm(len(m.Verts))
	verts := make([]mesh.Vertex, len(m.Verts))
	for v, p := range perm {
		verts[p] = m.Verts[v]
	}
	m.Verts = verts
	for i := range m.Elems {
		for k, v := range m.Elems[i].V {
			m.Elems[i].V[k] = mesh.VertID(perm[v])
		}
	}
}

// TestBuildMatchesMapOracle pins Build's CSR rows, entry for entry, to the
// map matcher's on the paper's rotor, a 24×8×8 box, the box after one
// refinement (the roots are now a prefix of the slab, not all of it), and
// the box with its vertex ids shuffled. Every graph must also pass Check.
func TestBuildMatchesMapOracle(t *testing.T) {
	box := func() *mesh.Mesh { return meshgen.Box(24, 8, 8, geom.Vec3{X: 3, Y: 1, Z: 1}) }
	adapted := box()
	a := adapt.New(adapted)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 1, Y: 0.5, Z: 0.5}, Radius: 0.4}, adapt.MarkRefine)
	a.Refine()
	relabelled := box()
	relabelVerts(relabelled, 1)
	for _, c := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"rotor", meshgen.PaperMesh()},
		{"box24x8x8", box()},
		{"box24x8x8/refined", adapted},
		{"box24x8x8/relabelled", relabelled},
	} {
		g := Build(c.m)
		if err := g.Check(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := mapAdjacency(c.m)
		if g.N != len(want) {
			t.Fatalf("%s: N = %d, oracle %d", c.name, g.N, len(want))
		}
		for v := range want {
			if got := g.Nbrs(int32(v)); !slices.Equal(got, want[v]) {
				t.Fatalf("%s: row %d = %v, oracle %v", c.name, v, got, want[v])
			}
		}
	}
}

// TestUpdateWeightsAllocatesNothing pins the translation of an adapted
// mesh onto the dual graph at zero allocations: a root's id is its dual
// vertex, so no root → vertex map is built per call.
func TestUpdateWeightsAllocatesNothing(t *testing.T) {
	m := meshgen.SmallBox()
	g := Build(m)
	a := adapt.New(m)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Radius: 0.4}, adapt.MarkRefine)
	a.Refine()
	if allocs := testing.AllocsPerRun(20, func() { g.UpdateWeights(m) }); allocs != 0 {
		t.Errorf("UpdateWeights allocates %v times per call, want 0", allocs)
	}
	if g.TotalWremap() != int64(m.NumElemsTotal()) || g.TotalWcomp() != int64(m.NumActiveElems()) {
		t.Errorf("weights (%d, %d) after refinement, mesh has (%d, %d)",
			g.TotalWcomp(), g.TotalWremap(), m.NumActiveElems(), m.NumElemsTotal())
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
