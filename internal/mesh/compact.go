package mesh

// CompactMap records the renumbering performed by Compact: old id → new
// id, with -1 for objects that were dropped.
type CompactMap struct {
	Vert []VertID
	Edge []EdgeID
	Elem []ElemID
	Face []FaceID
}

// Compact drops dead vertices, edges, elements, and boundary faces, and
// renumbers the survivors densely. It models the compaction the paper
// performs during the coarsening phase ("objects are renumbered as a
// result of compaction and all internal and shared data are updated
// accordingly"). It returns the renumbering so callers (solution fields,
// partition assignments, distributed-mesh bookkeeping) can update their
// own arrays.
func (m *Mesh) Compact() CompactMap {
	cm := CompactMap{
		Vert: make([]VertID, len(m.Verts)),
		Edge: make([]EdgeID, len(m.Edges)),
		Elem: make([]ElemID, len(m.Elems)),
		Face: make([]FaceID, len(m.Faces)),
	}

	nv := 0
	for i := range m.Verts {
		if m.Verts[i].Dead {
			cm.Vert[i] = InvalidVert
			continue
		}
		cm.Vert[i] = VertID(nv)
		if nv != i {
			m.Verts[nv] = m.Verts[i]
		}
		nv++
	}
	m.Verts = m.Verts[:nv]

	ne := 0
	for i := range m.Edges {
		if m.Edges[i].Dead {
			cm.Edge[i] = InvalidEdge
			continue
		}
		cm.Edge[i] = EdgeID(ne)
		if ne != i {
			m.Edges[ne] = m.Edges[i]
		}
		ne++
	}
	m.Edges = m.Edges[:ne]

	nt := 0
	for i := range m.Elems {
		if m.Elems[i].Dead {
			cm.Elem[i] = InvalidElem
			continue
		}
		cm.Elem[i] = ElemID(nt)
		if nt != i {
			m.Elems[nt] = m.Elems[i]
		}
		nt++
	}
	m.Elems = m.Elems[:nt]

	nf := 0
	for i := range m.Faces {
		if m.Faces[i].Dead {
			cm.Face[i] = InvalidFace
			continue
		}
		cm.Face[i] = FaceID(nf)
		if nf != i {
			m.Faces[nf] = m.Faces[i]
		}
		nf++
	}
	m.Faces = m.Faces[:nf]

	// Rewrite references.
	for i := range m.Verts {
		es := m.Verts[i].Edges
		for j, e := range es {
			es[j] = cm.Edge[e]
		}
	}
	for i := range m.Edges {
		ed := &m.Edges[i]
		ed.V[0] = cm.Vert[ed.V[0]]
		ed.V[1] = cm.Vert[ed.V[1]]
		for j, el := range ed.Elems {
			ed.Elems[j] = cm.Elem[el]
		}
		if ed.Parent != InvalidEdge {
			ed.Parent = cm.Edge[ed.Parent]
		}
		if ed.Bisected() {
			ed.Child[0] = cm.Edge[ed.Child[0]]
			ed.Child[1] = cm.Edge[ed.Child[1]]
			ed.Mid = cm.Vert[ed.Mid]
		}
	}
	for i := range m.Elems {
		t := &m.Elems[i]
		for j := range t.V {
			t.V[j] = cm.Vert[t.V[j]]
		}
		for j := range t.E {
			t.E[j] = cm.Edge[t.E[j]]
		}
		if t.Parent != InvalidElem {
			t.Parent = cm.Elem[t.Parent]
		}
		t.Root = cm.Elem[t.Root]
		kept := t.Children[:0]
		for _, c := range t.Children {
			if nc := cm.Elem[c]; nc != InvalidElem {
				kept = append(kept, nc)
			}
		}
		t.Children = kept
	}
	for i := range m.Faces {
		f := &m.Faces[i]
		for j := range f.V {
			f.V[j] = cm.Vert[f.V[j]]
		}
		for j := range f.E {
			f.E[j] = cm.Edge[f.E[j]]
		}
		if f.Parent != InvalidFace {
			f.Parent = cm.Face[f.Parent]
		}
		kept := f.Children[:0]
		for _, c := range f.Children {
			if nc := cm.Face[c]; nc != InvalidFace {
				kept = append(kept, nc)
			}
		}
		f.Children = kept
	}
	for i := range m.Bisections {
		b := &m.Bisections[i]
		b.Edge = cm.Edge[b.Edge]
		b.A = cm.Vert[b.A]
		b.B = cm.Vert[b.B]
		b.Mid = cm.Vert[b.Mid]
	}
	return cm
}
