package mesh

import "slices"

// CompactMap records the renumbering performed by Compact: old id → new
// id, with -1 for objects that were dropped. Survivors keep their order,
// so every map is monotone. The slices are scratch the mesh owns and
// reuses: a map is valid until the next Compact of the same mesh, and all
// four are nil when nothing was dead and so nothing moved.
type CompactMap struct {
	Vert []VertID
	Edge []EdgeID
	Elem []ElemID
	Face []FaceID
}

// Compact drops dead vertices, edges, elements, and boundary faces,
// renumbers the survivors densely in id order, and moves every live
// incidence and child list into fresh blocks sized to what is alive, so
// the slots and list blocks the dead held become garbage. It is the
// compaction the paper performs during the coarsening phase ("objects are
// renumbered as a result of compaction and all internal and shared data
// are updated accordingly"). The bisection log is renumbered, and loses the
// entries whose edge or midpoint died; the vertex renumbering is added to
// Renumbering for vertex-indexed fields to follow at their next sync. The
// returned map lets callers holding edge, element or face ids (the
// adaptor's marks) update them. With nothing dead nothing moves, and it
// returns after the scan that finds that out.
//
// The initial mesh's vertices, edges and elements are never dead, so they
// keep their ids for the life of the mesh.
func (m *Mesh) Compact() CompactMap {
	cm := &m.scratch
	cm.Vert = resize(cm.Vert, len(m.Verts))
	cm.Edge = resize(cm.Edge, len(m.Edges))
	cm.Elem = resize(cm.Elem, len(m.Elems))
	cm.Face = resize(cm.Face, len(m.Faces))
	slots := len(m.Verts) + len(m.Edges) + len(m.Elems) + len(m.Faces)

	m.Verts = compactSlab(m.Verts, cm.Vert, func(v *Vertex) bool { return v.Dead })
	m.Edges = compactSlab(m.Edges, cm.Edge, func(e *Edge) bool { return e.Dead })
	m.Elems = compactSlab(m.Elems, cm.Elem, func(t *Element) bool { return t.Dead })
	m.Faces = compactSlab(m.Faces, cm.Face, func(f *BoundaryFace) bool { return f.Dead })
	if len(m.Verts)+len(m.Edges)+len(m.Elems)+len(m.Faces) == slots {
		return CompactMap{}
	}

	// Size one fresh block per list kind to the survivors' lists, each at
	// the capacity push would have grown it to. Nothing live points into
	// the old blocks once the lists have moved.
	var nEdgeIDs, nElemIDs, nFaceIDs int
	for i := range m.Verts {
		nEdgeIDs += liveCap(m.Verts[i].Edges, cm.Edge, vertEdgeCap)
	}
	for i := range m.Edges {
		nElemIDs += liveCap(m.Edges[i].Elems, cm.Elem, edgeElemCap)
	}
	for i := range m.Elems {
		nElemIDs += liveCap(m.Elems[i].Children, cm.Elem, elemChildCap)
	}
	for i := range m.Faces {
		nFaceIDs += liveCap(m.Faces[i].Children, cm.Face, faceChildCap)
	}
	m.edgeSlab = make([]EdgeID, 0, nEdgeIDs)
	m.elemSlab = make([]ElemID, 0, nElemIDs)
	m.faceSlab = make([]FaceID, 0, nFaceIDs)

	// Rewrite references.
	for i := range m.Verts {
		v := &m.Verts[i]
		v.Edges = recarve(&m.edgeSlab, v.Edges, cm.Edge, vertEdgeCap)
	}
	for i := range m.Edges {
		ed := &m.Edges[i]
		ed.V[0] = cm.Vert[ed.V[0]]
		ed.V[1] = cm.Vert[ed.V[1]]
		ed.Elems = recarve(&m.elemSlab, ed.Elems, cm.Elem, edgeElemCap)
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
		t.Children = recarve(&m.elemSlab, t.Children, cm.Elem, elemChildCap)
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
		f.Children = recarve(&m.faceSlab, f.Children, cm.Face, faceChildCap)
	}

	kept := m.Bisections[:0]
	for _, b := range m.Bisections {
		if cm.Edge[b.Edge] == InvalidEdge || cm.Vert[b.Mid] == InvalidVert {
			continue // bisected and coarsened away again before any sync
		}
		kept = append(kept, Bisection{Edge: cm.Edge[b.Edge], A: cm.Vert[b.A], B: cm.Vert[b.B], Mid: cm.Vert[b.Mid]})
	}
	m.Bisections = kept

	if len(m.Renumbering) == 0 {
		m.Renumbering = append(m.Renumbering, cm.Vert...)
	} else {
		for old, v := range m.Renumbering {
			if v != InvalidVert {
				m.Renumbering[old] = cm.Vert[v]
			}
		}
	}
	return *cm
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// compactSlab moves the live records of slab down over the dead ones,
// keeping their order, fills ids with the old → new map, and zeroes the
// vacated tail so that its list headers stop pinning their blocks.
func compactSlab[T any, ID ~int32](slab []T, ids []ID, dead func(*T) bool) []T {
	n := 0
	for i := range slab {
		if dead(&slab[i]) {
			ids[i] = -1
			continue
		}
		ids[i] = ID(n)
		if n != i {
			slab[n] = slab[i]
		}
		n++
	}
	clear(slab[n:])
	return slab[:n]
}

// elemChildCap stands in for a first-carve capacity of element child
// lists: ChildList carves the pattern's exact 2, 4 or 8, which is what
// doubling from 2 gives.
const elemChildCap = 2

// liveCap returns the capacity the entries of l that survive the
// renumbering need as a list first carved at first: what push would have
// grown it to — first doubled until they fit — and nothing for none.
func liveCap[ID ~int32](l []ID, ids []ID, first int) int {
	n := 0
	for _, x := range l {
		if ids[x] >= 0 {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	c := first
	for c < n {
		c *= 2
	}
	return c
}

// recarve returns the surviving entries of l, renumbered, in a list of
// their liveCap carved from *s; nil when none survive.
func recarve[ID ~int32](s *[]ID, l []ID, ids []ID, first int) []ID {
	c := liveCap(l, ids, first)
	if c == 0 {
		return nil
	}
	out := carve(s, c)
	for _, x := range l {
		if nx := ids[x]; nx >= 0 {
			out = append(out, nx)
		}
	}
	return out
}
