package mesh_test

import (
	"math/rand"
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
// Clone / Rebase sequences and holds the list-probing FindEdge to a scan
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
			switch op := rng.Intn(6); op {
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
			case 5:
				name = "rebase"
				m.Rebase()
				a = adapt.New(m)
			}
			checkFindEdge(t, m, rng, name)
			if len(m.Elems) > 40000 {
				break
			}
		}
	}
}

// overflow fills l to its capacity and one entry beyond, with a value no
// list holds, and returns the grown list.
func overflow[T ~int32](l []T) []T {
	for n := cap(l) - len(l) + 1; n > 0; n-- {
		l = append(l, -7)
	}
	return l
}

// TestCarvedListsDoNotAlias appends past the carved capacity of one
// incidence or child list at a time and verifies every other list of the
// mesh keeps its contents: an overflowing append must move to the heap,
// never write into the list carved next.
func TestCarvedListsDoNotAlias(t *testing.T) {
	m := meshgen.Box(2, 2, 2, geom.Vec3{X: 1, Y: 1, Z: 1})
	a := adapt.New(m)
	a.MarkRandom(0.3, adapt.MarkRefine, 7)
	a.Refine()

	type snapshot struct {
		edges    [][]mesh.EdgeID
		elems    [][]mesh.ElemID
		children [][]mesh.ElemID
	}
	snap := func() snapshot {
		var s snapshot
		for i := range m.Verts {
			s.edges = append(s.edges, slices.Clone(m.Verts[i].Edges))
		}
		for i := range m.Edges {
			s.elems = append(s.elems, slices.Clone(m.Edges[i].Elems))
		}
		for i := range m.Elems {
			s.children = append(s.children, slices.Clone(m.Elems[i].Children))
		}
		return s
	}
	same := func(want snapshot, what string) {
		t.Helper()
		for i := range m.Verts {
			if !slices.Equal(m.Verts[i].Edges, want.edges[i]) {
				t.Fatalf("%s: vertex %d edge list changed: %v, was %v", what, i, m.Verts[i].Edges, want.edges[i])
			}
		}
		for i := range m.Edges {
			if !slices.Equal(m.Edges[i].Elems, want.elems[i]) {
				t.Fatalf("%s: edge %d element list changed: %v, was %v", what, i, m.Edges[i].Elems, want.elems[i])
			}
		}
		for i := range m.Elems {
			if !slices.Equal(m.Elems[i].Children, want.children[i]) {
				t.Fatalf("%s: element %d child list changed: %v, was %v", what, i, m.Elems[i].Children, want.children[i])
			}
		}
	}

	for i := 0; i < len(m.Verts); i += 5 {
		before := snap()
		old := m.Verts[i].Edges
		m.Verts[i].Edges = overflow(old)
		m.Verts[i].Edges = old
		same(before, "vertex list overflow")
	}
	for i := 0; i < len(m.Edges); i += 7 {
		before := snap()
		old := m.Edges[i].Elems
		m.Edges[i].Elems = overflow(old)
		m.Edges[i].Elems = old
		same(before, "edge list overflow")
	}
	for i := range m.Elems {
		if len(m.Elems[i].Children) == 0 {
			continue
		}
		before := snap()
		old := m.Elems[i].Children
		m.Elems[i].Children = overflow(old)
		m.Elems[i].Children = old
		same(before, "child list overflow")
	}
}
