package mesh

import (
	"testing"

	"plum/internal/geom"
)

// singleTet builds one unit right tetrahedron.
func singleTet(t *testing.T) (*Mesh, ElemID) {
	t.Helper()
	m := New(1)
	v0 := m.AddVertex(geom.Vec3{})
	v1 := m.AddVertex(geom.Vec3{X: 1})
	v2 := m.AddVertex(geom.Vec3{Y: 1})
	v3 := m.AddVertex(geom.Vec3{Z: 1})
	el := m.AddElement(v0, v1, v2, v3, InvalidElem, InvalidElem, 0)
	return m, el
}

func TestSingleTetCounts(t *testing.T) {
	m, el := singleTet(t)
	if got := m.NumVerts(); got != 4 {
		t.Errorf("verts = %d", got)
	}
	if got := m.NumActiveEdges(); got != 6 {
		t.Errorf("edges = %d", got)
	}
	if got := m.NumActiveElems(); got != 1 {
		t.Errorf("elems = %d", got)
	}
	if m.Elems[el].Root != el {
		t.Error("initial element should be its own root")
	}
	if err := m.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestElemOrientationNormalized(t *testing.T) {
	m := New(1)
	v0 := m.AddVertex(geom.Vec3{})
	v1 := m.AddVertex(geom.Vec3{X: 1})
	v2 := m.AddVertex(geom.Vec3{Y: 1})
	v3 := m.AddVertex(geom.Vec3{Z: 1})
	// Deliberately negative orientation: (v0,v1,v3,v2).
	el := m.AddElement(v0, v1, v3, v2, InvalidElem, InvalidElem, 0)
	if vol := m.ElemVolume(el); vol <= 0 {
		t.Errorf("volume not normalized positive: %g", vol)
	}
}

func TestEdgeDedup(t *testing.T) {
	m := New(2)
	v0 := m.AddVertex(geom.Vec3{})
	v1 := m.AddVertex(geom.Vec3{X: 1})
	v2 := m.AddVertex(geom.Vec3{Y: 1})
	v3 := m.AddVertex(geom.Vec3{Z: 1})
	v4 := m.AddVertex(geom.Vec3{X: 1, Y: 1, Z: 1})
	m.AddElement(v0, v1, v2, v3, InvalidElem, InvalidElem, 0)
	m.AddElement(v1, v2, v3, v4, InvalidElem, InvalidElem, 0)
	// Shared face (v1,v2,v3) must not duplicate its three edges.
	if got := m.NumActiveEdges(); got != 9 {
		t.Errorf("edges = %d, want 9 (6 + 3 new)", got)
	}
	e := m.FindEdge(v2, v1)
	if e == InvalidEdge {
		t.Fatal("FindEdge symmetric lookup failed")
	}
	if got := m.Edge(e).NumElems(); got != 2 {
		t.Errorf("shared edge incidence = %d, want 2", got)
	}
	if err := m.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestBisectEdge(t *testing.T) {
	m, _ := singleTet(t)
	e := m.FindEdge(0, 1)
	mid := m.BisectEdge(e)
	if mid == InvalidVert {
		t.Fatal("no midpoint")
	}
	if m.Vert(mid).Pos != (geom.Vec3{X: 0.5}) {
		t.Errorf("midpoint at %v", m.Vert(mid).Pos)
	}
	if !m.Edge(e).Bisected() {
		t.Error("edge not marked bisected")
	}
	// Idempotent.
	if again := m.BisectEdge(e); again != mid {
		t.Error("BisectEdge not idempotent")
	}
	if m.NumBisections() != 1 {
		t.Errorf("bisection log has %d entries, want 1", m.NumBisections())
	}
	b := m.Bisection(0)
	if b.Mid != mid || b.Edge != e {
		t.Errorf("log entry %+v", b)
	}
	// The child on vertex 0: Child[0] spans (V[0], Mid), Child[1]
	// (Mid, V[1]).
	c0 := m.Edge(e).Child[0]
	if m.Edge(e).V[1] == 0 {
		c0 = m.Edge(e).Child[1]
	}
	if m.Edge(c0).V != [2]VertID{0, mid} && m.Edge(c0).V != [2]VertID{mid, 0} {
		t.Errorf("child on vertex 0 has endpoints %v", m.Edge(c0).V)
	}
	// Active edge count: 6 - 1 bisected + 2 children = 7.
	if got := m.NumActiveEdges(); got != 7 {
		t.Errorf("active edges = %d, want 7", got)
	}
}

func TestLocalEdgeTables(t *testing.T) {
	for le, lv := range ElemEdgeVerts {
		if got := LocalEdge(lv[0], lv[1]); got != le {
			t.Errorf("LocalEdge(%d,%d) = %d, want %d", lv[0], lv[1], got, le)
		}
		if got := LocalEdge(lv[1], lv[0]); got != le {
			t.Errorf("LocalEdge reversed (%d,%d) = %d, want %d", lv[1], lv[0], got, le)
		}
	}
	if LocalEdge(2, 2) != -1 {
		t.Error("LocalEdge of equal vertices should be -1")
	}
	// Each face's edge set must match its vertex set.
	for f, fv := range ElemFaceVerts {
		want := map[int]bool{}
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				want[LocalEdge(fv[i], fv[j])] = true
			}
		}
		for _, fe := range ElemFaceEdges[f] {
			if !want[fe] {
				t.Errorf("face %d: edge %d not derived from vertices", f, fe)
			}
		}
	}
}

func TestDeactivateReactivateElement(t *testing.T) {
	m, el := singleTet(t)
	m.DeactivateElement(el)
	if m.NumActiveElems() != 0 {
		t.Error("element still active")
	}
	for _, e := range m.Tet(el).E {
		if m.Edge(e).NumElems() != 0 {
			t.Error("incidence list not cleared")
		}
	}
	m.ReactivateElement(el)
	if m.NumActiveElems() != 1 {
		t.Error("element not reactivated")
	}
	if err := m.Check(); err != nil {
		t.Fatalf("Check after reactivate: %v", err)
	}
}

func TestKillEdgeVertex(t *testing.T) {
	m := New(0)
	a := m.AddVertex(geom.Vec3{})
	b := m.AddVertex(geom.Vec3{X: 1})
	e := m.AddEdge(a, b)
	m.KillEdge(e)
	if !m.Edge(e).Dead {
		t.Error("edge not dead")
	}
	if m.FindEdge(a, b) != InvalidEdge {
		t.Error("dead edge still findable")
	}
	if m.NumActiveEdges() != 0 {
		t.Error("edge counter wrong")
	}
	m.KillVertex(a)
	m.KillVertex(b)
	if m.NumVerts() != 0 {
		t.Error("vertices not dead")
	}
}

func TestCompactRenumbers(t *testing.T) {
	m := New(2)
	v0 := m.AddVertex(geom.Vec3{})
	v1 := m.AddVertex(geom.Vec3{X: 1})
	v2 := m.AddVertex(geom.Vec3{Y: 1})
	v3 := m.AddVertex(geom.Vec3{Z: 1})
	v4 := m.AddVertex(geom.Vec3{X: 1, Y: 1, Z: 1})
	e0 := m.AddElement(v0, v1, v2, v3, InvalidElem, InvalidElem, 0)
	e1 := m.AddElement(v1, v2, v3, v4, InvalidElem, InvalidElem, 0)
	volBefore := m.TotalVolume()

	// Remove the second element entirely and its private objects.
	m.DeactivateElement(e1)
	m.KillElement(e1)
	for _, e := range []EdgeID{m.FindEdge(v1, v4), m.FindEdge(v2, v4), m.FindEdge(v3, v4)} {
		m.KillEdge(e)
	}
	m.KillVertex(v4)

	cm := m.Compact()
	if cm.Elem[e1] != InvalidElem {
		t.Error("dead element survived compaction")
	}
	if cm.Elem[e0] == InvalidElem {
		t.Error("live element dropped")
	}
	if m.VertSlots() != 4 || len(m.Elems) != 1 || m.EdgeSlots() != 6 || m.NumRoots() != 1 {
		t.Errorf("compacted sizes: %d verts %d edges %d elems %d roots", m.VertSlots(), m.EdgeSlots(), len(m.Elems), m.NumRoots())
	}
	if err := m.Check(); err != nil {
		t.Fatalf("Check after compact: %v", err)
	}
	if got := m.TotalVolume(); got >= volBefore || got <= 0 {
		t.Errorf("volume after compact = %g", got)
	}
	// Edge lookup must work post-compaction.
	if m.FindEdge(cm.Vert[v0], cm.Vert[v1]) == InvalidEdge {
		t.Error("edge map not rebuilt")
	}
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e *Edge) Other(v VertID) VertID {
	switch v {
	case e.V[0]:
		return e.V[1]
	case e.V[1]:
		return e.V[0]
	}
	panic("mesh: vertex not an endpoint of edge")
}

func TestEdgeOther(t *testing.T) {
	m := New(0)
	a := m.AddVertex(geom.Vec3{})
	b := m.AddVertex(geom.Vec3{X: 1})
	e := m.AddEdge(a, b)
	if m.Edge(e).Other(a) != b || m.Edge(e).Other(b) != a {
		t.Error("Other endpoint lookup wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other with non-endpoint must panic")
		}
	}()
	m.Edge(e).Other(99)
}

func TestStatsString(t *testing.T) {
	m, _ := singleTet(t)
	s := m.Stats()
	if s.Verts != 4 || s.ActiveEdges != 6 || s.ActiveElems != 1 || s.TotalElems != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}
