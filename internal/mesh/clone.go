package mesh

// Restore reconstructs a Mesh from raw object slabs (as read from a
// serialized snapshot), rebuilding the active counters. The slabs are
// adopted, not copied.
func Restore(verts []Vertex, edges []Edge, elems []Element, faces []BoundaryFace) *Mesh {
	m := &Mesh{Verts: verts, Edges: edges, Elems: elems, Faces: faces}
	for i := range edges {
		if e := &edges[i]; !e.Dead && !e.Bisected() {
			m.nActiveEdges++
		}
	}
	for i := range elems {
		if elems[i].Active() {
			m.nActiveElems++
		}
	}
	for i := range faces {
		if faces[i].Active() {
			m.nActiveFaces++
		}
	}
	return m
}

// Clone returns a deep copy of the mesh. The experiment harness uses this
// to run one generated mesh through many independent adaption/partition
// scenarios without regenerating it.
func (m *Mesh) Clone() *Mesh {
	c := &Mesh{
		Verts:        make([]Vertex, len(m.Verts)),
		Edges:        make([]Edge, len(m.Edges)),
		Elems:        make([]Element, len(m.Elems)),
		Faces:        make([]BoundaryFace, len(m.Faces)),
		Bisections:   append([]Bisection(nil), m.Bisections...),
		Renumbering:  append([]VertID(nil), m.Renumbering...),
		nActiveElems: m.nActiveElems,
		nActiveEdges: m.nActiveEdges,
		nActiveFaces: m.nActiveFaces,
	}
	for i := range m.Verts {
		c.Verts[i] = m.Verts[i]
		c.Verts[i].Edges = append([]EdgeID(nil), m.Verts[i].Edges...)
	}
	for i := range m.Edges {
		c.Edges[i] = m.Edges[i]
		c.Edges[i].Elems = append([]ElemID(nil), m.Edges[i].Elems...)
	}
	for i := range m.Elems {
		c.Elems[i] = m.Elems[i]
		c.Elems[i].Children = append([]ElemID(nil), m.Elems[i].Children...)
	}
	for i := range m.Faces {
		c.Faces[i] = m.Faces[i]
		c.Faces[i].Children = append([]FaceID(nil), m.Faces[i].Children...)
	}
	return c
}
