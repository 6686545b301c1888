package mesh_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
)

// checkFindEdge compares FindEdge with a scan of the edge slab on every
// live edge's endpoints (both argument orders) and on random vertex pairs,
// most of which no edge connects.
func checkFindEdge(t *testing.T, m *mesh.Mesh, rng *rand.Rand, step string) {
	t.Helper()
	if err := m.Check(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	for e, ed := range m.Edges() {
		if ed.Dead {
			continue
		}
		if got := m.FindEdge(ed.V[0], ed.V[1]); got != e {
			t.Fatalf("%s: FindEdge(%d,%d) = %d, want %d", step, ed.V[0], ed.V[1], got, e)
		}
		if got := m.FindEdge(ed.V[1], ed.V[0]); got != e {
			t.Fatalf("%s: FindEdge(%d,%d) = %d, want %d", step, ed.V[1], ed.V[0], got, e)
		}
	}
	// The brute force: one scan of the whole edge slab finds the live edge
	// over each random pair, if there is one.
	want := make(map[[2]mesh.VertID]mesh.EdgeID)
	for range 300 {
		a := mesh.VertID(rng.Intn(m.VertSlots()))
		b := mesh.VertID(rng.Intn(m.VertSlots()))
		if a != b {
			want[[2]mesh.VertID{min(a, b), max(a, b)}] = mesh.InvalidEdge
		}
	}
	for e := range mesh.EdgeID(m.EdgeSlots()) {
		if ed := m.Edge(e); !ed.Dead {
			if _, ok := want[ed.V]; ok {
				want[ed.V] = e
			}
		}
	}
	for pair, e := range want {
		if got := m.FindEdge(pair[1], pair[0]); got != e {
			t.Fatalf("%s: FindEdge(%d,%d) = %d, brute force %d", step, pair[1], pair[0], got, e)
		}
	}
}

// TestFindEdgeMatchesBruteForce drives random refine / coarsen / Compact /
// Clone sequences and holds the list-probing FindEdge to a scan
// of the edge slab after every step: the vertex incidence lists are the
// only edge index the mesh has.
func TestFindEdgeMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := meshgen.Box(2, 2, 2, geom.Vec3{X: 1, Y: 1, Z: 1})
		a := adapt.New(m)
		checkFindEdge(t, m, rng, "initial")
		for range 12 {
			var name string
			switch op := rng.Intn(5); op {
			case 0, 1:
				name = "refine"
				a.MarkRandom(0.02+0.1*rng.Float64(), adapt.MarkRefine, rng.Int63())
				a.Refine()
			case 2:
				name = "coarsen"
				a.MarkRandom(0.5*rng.Float64(), adapt.MarkCoarsen, rng.Int63())
				a.Coarsen()
			case 3:
				name = "compact"
				a.Compact()
			case 4:
				name = "clone"
				m = m.Clone()
				a = adapt.New(m)
			}
			checkFindEdge(t, m, rng, name)
			if len(m.Elems) > 40000 {
				break
			}
		}
	}
}

// lists copies every incidence list of m out through the accessors.
func lists(m *mesh.Mesh) (edges [][]mesh.EdgeID, elems [][]mesh.ElemID) {
	for v := range mesh.VertID(m.VertSlots()) {
		edges = append(edges, slices.Clone(m.VertEdges(v)))
	}
	for e := range mesh.EdgeID(m.EdgeSlots()) {
		elems = append(elems, slices.Clone(m.EdgeElems(e)))
	}
	return edges, elems
}

// slabs copies every record of m out through the accessors.
type slabs struct {
	verts []mesh.Vertex
	edges []mesh.Edge
	elems []mesh.Element
	tets  []mesh.Tet
	faces []mesh.BoundaryFace
}

func copySlabs(m *mesh.Mesh) slabs {
	var s slabs
	for v := range mesh.VertID(m.VertSlots()) {
		s.verts = append(s.verts, *m.Vert(v))
	}
	for e := range mesh.EdgeID(m.EdgeSlots()) {
		s.edges = append(s.edges, *m.Edge(e))
	}
	for f := range mesh.FaceID(m.FaceSlots()) {
		s.faces = append(s.faces, *m.Face(f))
	}
	s.elems = slices.Clone(m.Elems)
	for el := range mesh.ElemID(m.ElemSlots()) {
		s.tets = append(s.tets, *m.Tet(el))
	}
	return s
}

// sameLists reports the first incidence list of m that differs from the
// copies lists took.
func sameLists(m *mesh.Mesh, edges [][]mesh.EdgeID, elems [][]mesh.ElemID) error {
	if m.VertSlots() != len(edges) || m.EdgeSlots() != len(elems) {
		return fmt.Errorf("%d vertices and %d edges, want %d and %d", m.VertSlots(), m.EdgeSlots(), len(edges), len(elems))
	}
	for v := range mesh.VertID(m.VertSlots()) {
		if got := m.VertEdges(v); !slices.Equal(got, edges[v]) {
			return fmt.Errorf("vertex %d edge list %v, was %v", v, got, edges[v])
		}
	}
	for e := range mesh.EdgeID(m.EdgeSlots()) {
		if got := m.EdgeElems(e); !slices.Equal(got, elems[e]) {
			return fmt.Errorf("edge %d element list %v, was %v", e, got, elems[e])
		}
	}
	return nil
}

// Sinks for TestCarvedListsDoNotAlias's appends.
var (
	grownEdges []mesh.EdgeID
	grownElems []mesh.ElemID
)

// TestCarvedListsDoNotAlias appends to the result of every accessor and
// verifies every list of the mesh keeps its contents: an accessor's
// capacity is its length, so an append copies instead of writing into the
// block, where the next entry belongs to the list itself or its
// neighbour.
func TestCarvedListsDoNotAlias(t *testing.T) {
	m := meshgen.Box(2, 2, 2, geom.Vec3{X: 1, Y: 1, Z: 1})
	a := adapt.New(m)
	a.MarkRandom(0.3, adapt.MarkRefine, 7)
	a.Refine()
	edges, elems := lists(m)
	for v := range mesh.VertID(m.VertSlots()) {
		grownEdges = append(m.VertEdges(v), -7)
	}
	for e := range mesh.EdgeID(m.EdgeSlots()) {
		grownElems = append(m.EdgeElems(e), -7)
	}
	if err := sameLists(m, edges, elems); err != nil {
		t.Fatalf("after appending to every accessor's result: %v", err)
	}
}

// TestMeshRecordsHoldNoPointers walks the record types field by field: a
// pointer-bearing field would make the GC scan the slabs again and Clone
// share state between copies.
func TestMeshRecordsHoldNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Slice, reflect.Map, reflect.Pointer, reflect.String, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %s: mesh records must hold no pointers", path, ty.Kind())
		}
	}
	for _, rec := range []any{mesh.Vertex{}, mesh.Edge{}, mesh.Element{}, mesh.Tet{}, mesh.BoundaryFace{}, mesh.Bisection{}} {
		ty := reflect.TypeOf(rec)
		walk(ty.Name(), ty)
	}
}

// cloneAllocs returns the allocations Clone makes of m: the Mesh and its
// forest slab, and for every paged slab that holds anything its page
// table and one per page in use. The bisection log and the renumbering
// must be empty (ResetLog).
func cloneAllocs(m *mesh.Mesh) int {
	n := 2
	for _, pages := range m.Pages() {
		if pages != 0 {
			n += 1 + pages
		}
	}
	return n
}

// TestCloneAllocatesConstant pins Clone to a copy of each slab page by
// page: the same number of allocations on a box and on a refined box eight
// times its size, each of whose paged slabs fits one page, and one more
// per page on a mesh spanning several.
func TestCloneAllocatesConstant(t *testing.T) {
	small := meshgen.Box(2, 2, 2, geom.Vec3{X: 1, Y: 1, Z: 1})
	big := meshgen.Box(4, 4, 4, geom.Vec3{X: 1, Y: 1, Z: 1})
	a := adapt.New(big)
	a.MarkRandom(0.2, adapt.MarkRefine, 3)
	a.Refine()
	big.ResetLog()
	// The Mesh, its forest slab, and the page table and the one page of
	// each of the six non-empty paged slabs.
	const want = 14
	for _, m := range []*mesh.Mesh{small, big} {
		if got := testing.AllocsPerRun(10, func() { m.Clone() }); got != want || cloneAllocs(m) != want {
			t.Errorf("Clone of %d elements allocates %v times, want %d (pages in use %v)", len(m.Elems), got, want, m.Pages())
		}
	}
	paged := pagedBox(t)
	paged.ResetLog()
	if got, want := testing.AllocsPerRun(3, func() { paged.Clone() }), cloneAllocs(paged); got != float64(want) {
		t.Errorf("Clone of a mesh with pages in use %v allocates %v times, want %d", paged.Pages(), got, want)
	}
}

// TestCloneIsIndependent adapts and compacts a clone and checks that the
// original keeps every list and stays valid.
func TestCloneIsIndependent(t *testing.T) {
	m := meshgen.Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
	a := adapt.New(m)
	a.MarkRandom(0.2, adapt.MarkRefine, 5)
	a.Refine()
	checkCloneIndependent(t, m, 0.3)
}

// checkCloneIndependent refines a clone of m at refine, then coarsens and
// compacts it, and checks that m keeps every record and list and stays
// valid.
func checkCloneIndependent(t *testing.T, m *mesh.Mesh, refine float64) {
	t.Helper()
	edges, elems := lists(m)
	before := copySlabs(m)

	c := m.Clone()
	ac := adapt.New(c)
	ac.MarkRandom(refine, adapt.MarkRefine, 6)
	ac.Refine()
	ac.MarkRandom(0.5, adapt.MarkCoarsen, 7)
	ac.Coarsen()
	ac.Compact()
	if err := c.Check(); err != nil {
		t.Fatalf("clone: %v", err)
	}
	if err := sameLists(m, edges, elems); err != nil {
		t.Fatalf("original changed with its clone: %v", err)
	}
	if !reflect.DeepEqual(copySlabs(m), before) {
		t.Fatal("original's slabs changed with its clone")
	}
	if err := m.Check(); err != nil {
		t.Fatalf("original: %v", err)
	}
}

// pagedBox returns a box refined until each of its paged slabs and list
// blocks has at least two pages in use; the unit meshes above fit one.
func pagedBox(t *testing.T) *mesh.Mesh {
	t.Helper()
	m := meshgen.Box(17, 17, 17, geom.Vec3{X: 1, Y: 1, Z: 1})
	a := adapt.New(m)
	a.MarkRandom(0.3, adapt.MarkRefine, 1)
	a.Refine()
	for i, n := range m.Pages() {
		if n < 2 {
			t.Fatalf("paged slab %d of %v has %d page in use, want at least 2", i, m.Pages(), n)
		}
	}
	return m
}

// checkViews fails unless every incidence list view of m lies in one page
// of its block.
func checkViews(t *testing.T, m *mesh.Mesh, step string) {
	t.Helper()
	for v := range mesh.VertID(m.VertSlots()) {
		if !m.VertEdgesInPage(v) {
			t.Fatalf("%s: vertex %d's edge list crosses a page", step, v)
		}
	}
	for e := range mesh.EdgeID(m.EdgeSlots()) {
		if !m.EdgeElemsInPage(e) {
			t.Fatalf("%s: edge %d's element list crosses a page", step, e)
		}
	}
}

// TestPagesAcrossBoundaries runs a mesh spanning several pages of every
// paged slab and list block through refinement, coarsening, Compact and
// Clone: after each the mesh is valid, FindEdge agrees with the slab scan,
// and every list view lies in one page; the clone stays independent.
func TestPagesAcrossBoundaries(t *testing.T) {
	m := pagedBox(t)
	rng := rand.New(rand.NewSource(1))
	a := adapt.New(m)
	check := func(step string) {
		t.Helper()
		checkFindEdge(t, m, rng, step)
		checkViews(t, m, step)
	}
	check("refine")
	a.MarkRandom(0.4, adapt.MarkCoarsen, 3)
	a.Coarsen()
	check("coarsen")
	if cm := a.Compact(); cm.Edge == nil {
		t.Fatal("the coarsening left nothing dead to compact")
	}
	check("compact")
	c := m.Clone()
	m = c
	check("clone")
	checkCloneIndependent(t, m, 0.01)
}
