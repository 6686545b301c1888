package mesh

import (
	"strings"
	"testing"

	"plum/internal/geom"
)

// These failure-injection tests corrupt a valid mesh in each of the ways
// the consistency checker claims to detect, and verify it actually does.

func validPair(t *testing.T) *Mesh {
	t.Helper()
	m := New(8, 20, 2)
	v0 := m.AddVertex(geom.Vec3{})
	v1 := m.AddVertex(geom.Vec3{X: 1})
	v2 := m.AddVertex(geom.Vec3{Y: 1})
	v3 := m.AddVertex(geom.Vec3{Z: 1})
	v4 := m.AddVertex(geom.Vec3{X: 1, Y: 1, Z: 1})
	m.AddElement(v0, v1, v2, v3, InvalidElem, InvalidElem, 0)
	m.AddElement(v1, v2, v3, v4, InvalidElem, InvalidElem, 0)
	if err := m.Check(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return m
}

func wantCheckError(t *testing.T, m *Mesh, substr string) {
	t.Helper()
	err := m.Check()
	if err == nil {
		t.Fatalf("corruption not detected (want error containing %q)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("detected wrong violation: %v (want %q)", err, substr)
	}
}

func TestCheckDetectsStaleIncidence(t *testing.T) {
	m := validPair(t)
	// Inject a stale entry into an edge's element list.
	m.Edges[0].Elems = append(m.Edges[0].Elems, 1)
	wantCheckError(t, m, "incidence")
}

func TestCheckDetectsMissingIncidence(t *testing.T) {
	m := validPair(t)
	m.Edges[0].Elems = m.Edges[0].Elems[:0]
	wantCheckError(t, m, "incidence")
}

func TestCheckDetectsDanglingVertexEdge(t *testing.T) {
	m := validPair(t)
	// Vertex incidence listing an edge that does not contain it.
	other := m.FindEdge(2, 3)
	m.Verts[0].Edges = append(m.Verts[0].Edges, other)
	wantCheckError(t, m, "does not contain")
}

func TestCheckDetectsWrongEdgeEndpoints(t *testing.T) {
	m := validPair(t)
	m.Edges[m.Elems[0].E[0]].V = [2]VertID{2, 3}
	wantCheckError(t, m, "endpoints")
}

func TestCheckDetectsActiveElementOnBisectedEdge(t *testing.T) {
	m := validPair(t)
	e := m.Elems[0].E[0]
	// Forge a bisection without subdividing the element.
	mid := m.AddVertex(geom.Vec3{X: 0.5})
	c0 := m.AddEdge(m.Edges[e].V[0], mid)
	c1 := m.AddEdge(mid, m.Edges[e].V[1])
	ed := &m.Edges[e]
	ed.Child = [2]EdgeID{c0, c1}
	ed.Mid = mid
	wantCheckError(t, m, "bisected")
}

func TestCheckDetectsCounterDrift(t *testing.T) {
	m := validPair(t)
	m.nActiveElems++
	wantCheckError(t, m, "counter")
}

func TestCheckDetectsNegativeVolume(t *testing.T) {
	m := validPair(t)
	// Move a vertex so element 0 inverts. Element 0 is (0,1,2,3); push
	// vertex 3 through the opposite face.
	m.Verts[3].Pos = geom.Vec3{X: 0.6, Y: 0.6, Z: -2}
	if err := m.Check(); err == nil {
		t.Fatal("inverted element not detected")
	}
}

func TestCheckDetectsDeadEdgeInUse(t *testing.T) {
	m := validPair(t)
	m.Edges[m.Elems[0].E[0]].Dead = true
	err := m.Check()
	if err == nil {
		t.Fatal("dead edge in use not detected")
	}
}

func TestCheckDetectsFaceOverForeignEdge(t *testing.T) {
	m := validPair(t)
	m.AddBoundaryFace(0, 1, 2, 0)
	// Point the face at an edge with the wrong endpoints.
	m.Faces[0].E[0] = m.FindEdge(2, 3)
	wantCheckError(t, m, "face")
}

func TestCheckDetectsDuplicateEdge(t *testing.T) {
	m := validPair(t)
	// A second live edge over the endpoints of edge 0, registered the way
	// AddEdge would have: FindEdge could return either.
	dup := m.Edges[0]
	dup.Elems = nil
	m.Edges = append(m.Edges, dup)
	id := EdgeID(len(m.Edges) - 1)
	for _, v := range dup.V {
		m.Verts[v].Edges = append(m.Verts[v].Edges, id)
	}
	m.nActiveEdges++
	wantCheckError(t, m, "connects the same vertices")
}

func TestCheckDetectsEdgeListedTwice(t *testing.T) {
	m := validPair(t)
	v := m.Edges[0].V[0]
	m.Verts[v].Edges = append(m.Verts[v].Edges, 0)
	wantCheckError(t, m, "incidence list 2 times")
}

func TestCheckDetectsEdgeMissingFromVertexList(t *testing.T) {
	m := validPair(t)
	v := m.Edges[0].V[1]
	lst := m.Verts[v].Edges
	for i, e := range lst {
		if e == 0 {
			m.Verts[v].Edges = append(lst[:i:i], lst[i+1:]...)
		}
	}
	wantCheckError(t, m, "incidence list 0 times")
}

func TestCheckDetectsUnorderedEndpoints(t *testing.T) {
	m := validPair(t)
	ed := &m.Edges[0]
	ed.V[0], ed.V[1] = ed.V[1], ed.V[0]
	wantCheckError(t, m, "ascending")
}
