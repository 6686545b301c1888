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

// findEdgeBrute is the reference FindEdge: a scan of the whole edge slab
// for the live edge over {a, b}.
func findEdgeBrute(m *mesh.Mesh, a, b mesh.VertID) mesh.EdgeID {
	for i := range m.Edges {
		ed := &m.Edges[i]
		if !ed.Dead && (ed.V == [2]mesh.VertID{a, b} || ed.V == [2]mesh.VertID{b, a}) {
			return mesh.EdgeID(i)
		}
	}
	return mesh.InvalidEdge
}

// checkFindEdge compares FindEdge with the brute-force scan on every live
// edge's endpoints (both argument orders) and on random vertex pairs, most
// of which no edge connects.
func checkFindEdge(t *testing.T, m *mesh.Mesh, rng *rand.Rand, step string) {
	t.Helper()
	if err := m.Check(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	for i := range m.Edges {
		ed := &m.Edges[i]
		if ed.Dead {
			continue
		}
		if got := m.FindEdge(ed.V[0], ed.V[1]); got != mesh.EdgeID(i) {
			t.Fatalf("%s: FindEdge(%d,%d) = %d, want %d", step, ed.V[0], ed.V[1], got, i)
		}
		if got := m.FindEdge(ed.V[1], ed.V[0]); got != mesh.EdgeID(i) {
			t.Fatalf("%s: FindEdge(%d,%d) = %d, want %d", step, ed.V[1], ed.V[0], got, i)
		}
	}
	for range 300 {
		a := mesh.VertID(rng.Intn(len(m.Verts)))
		b := mesh.VertID(rng.Intn(len(m.Verts)))
		if a == b {
			continue
		}
		if got, want := m.FindEdge(a, b), findEdgeBrute(m, a, b); got != want {
			t.Fatalf("%s: FindEdge(%d,%d) = %d, brute force %d", step, a, b, got, want)
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
	for v := range m.Verts {
		edges = append(edges, slices.Clone(m.VertEdges(mesh.VertID(v))))
	}
	for e := range m.Edges {
		elems = append(elems, slices.Clone(m.EdgeElems(mesh.EdgeID(e))))
	}
	return edges, elems
}

// sameLists reports the first incidence list of m that differs from the
// copies lists took.
func sameLists(m *mesh.Mesh, edges [][]mesh.EdgeID, elems [][]mesh.ElemID) error {
	if len(m.Verts) != len(edges) || len(m.Edges) != len(elems) {
		return fmt.Errorf("%d vertices and %d edges, want %d and %d", len(m.Verts), len(m.Edges), len(edges), len(elems))
	}
	for v := range m.Verts {
		if got := m.VertEdges(mesh.VertID(v)); !slices.Equal(got, edges[v]) {
			return fmt.Errorf("vertex %d edge list %v, was %v", v, got, edges[v])
		}
	}
	for e := range m.Edges {
		if got := m.EdgeElems(mesh.EdgeID(e)); !slices.Equal(got, elems[e]) {
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
	for v := range m.Verts {
		grownEdges = append(m.VertEdges(mesh.VertID(v)), -7)
	}
	for e := range m.Edges {
		grownElems = append(m.EdgeElems(mesh.EdgeID(e)), -7)
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
	for _, rec := range []any{mesh.Vertex{}, mesh.Edge{}, mesh.Element{}, mesh.BoundaryFace{}, mesh.Bisection{}} {
		ty := reflect.TypeOf(rec)
		walk(ty.Name(), ty)
	}
}

// TestCloneAllocatesConstant pins Clone to a copy of each slab and list
// block: the same number of allocations on a box and on a refined box
// eight times its size.
func TestCloneAllocatesConstant(t *testing.T) {
	small := meshgen.Box(2, 2, 2, geom.Vec3{X: 1, Y: 1, Z: 1})
	big := meshgen.Box(4, 4, 4, geom.Vec3{X: 1, Y: 1, Z: 1})
	a := adapt.New(big)
	a.MarkRandom(0.2, adapt.MarkRefine, 3)
	a.Refine()
	big.ResetLog()
	// The Mesh, its four slabs and its two list blocks.
	const want = 7
	for _, m := range []*mesh.Mesh{small, big} {
		if got := testing.AllocsPerRun(10, func() { m.Clone() }); got != want {
			t.Errorf("Clone of %d elements allocates %v times, want %d", len(m.Elems), got, want)
		}
	}
}

// TestCloneIsIndependent adapts and compacts a clone and checks that the
// original keeps every list and stays valid.
func TestCloneIsIndependent(t *testing.T) {
	m := meshgen.Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
	a := adapt.New(m)
	a.MarkRandom(0.2, adapt.MarkRefine, 5)
	a.Refine()
	edges, elems := lists(m)
	slabs := []any{slices.Clone(m.Verts), slices.Clone(m.Edges), slices.Clone(m.Elems), slices.Clone(m.Faces)}

	c := m.Clone()
	ac := adapt.New(c)
	ac.MarkRandom(0.3, adapt.MarkRefine, 6)
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
	if got := []any{m.Verts, m.Edges, m.Elems, m.Faces}; !reflect.DeepEqual(got, slabs) {
		t.Fatal("original's slabs changed with its clone")
	}
	if err := m.Check(); err != nil {
		t.Fatalf("original: %v", err)
	}
}
