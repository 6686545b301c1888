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
// renumbers the survivors densely in id order, and re-carves every live
// incidence list into a fresh block, so the slots and carves the dead held
// are reclaimed. A sibling group survives or dies whole and keeps its
// order, so it stays an id range and only its first id moves. It is the
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
// keep their ids for the life of the mesh; a root killed by hand leaves the
// survivors as the shorter prefix [0, NumRoots).
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
	roots := 0
	for _, id := range cm.Elem[:m.nRoots] {
		if id != InvalidElem {
			roots++
		}
	}
	m.nRoots = roots

	// Re-carve the lists into one fresh block per kind, at the class push
	// would have grown each to. The survivors never need more than the old
	// block's capacity, and a smaller block would be copied again by the
	// next round's Reserve.
	edgeBlk := make([]EdgeID, 0, cap(m.edgeBlk))
	elemBlk := make([]ElemID, 0, cap(m.elemBlk))
	for i := range m.Verts {
		v := &m.Verts[i]
		v.edgeOff, v.nEdges, v.edgeCls = recarve(&edgeBlk, m.edgeBlk, v.edgeOff, v.nEdges, cm.Edge, vertEdgeCap)
	}
	for i := range m.Edges {
		ed := &m.Edges[i]
		ed.V[0] = cm.Vert[ed.V[0]]
		ed.V[1] = cm.Vert[ed.V[1]]
		ed.elemOff, ed.nElems, ed.elemCls = recarve(&elemBlk, m.elemBlk, ed.elemOff, ed.nElems, cm.Elem, edgeElemCap)
		if ed.Parent != InvalidEdge {
			ed.Parent = cm.Edge[ed.Parent]
		}
		if ed.Bisected() {
			ed.Child[0] = cm.Edge[ed.Child[0]]
			ed.Child[1] = cm.Edge[ed.Child[1]]
			ed.Mid = cm.Vert[ed.Mid]
		}
	}
	m.edgeBlk, m.elemBlk = edgeBlk, elemBlk
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
		if t.nKids != 0 {
			t.kids = cm.Elem[t.kids]
		}
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
		if f.nKids != 0 {
			f.kids = cm.Face[f.kids]
		}
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
// keeping their order, and fills ids with the old → new map. The vacated
// tail is left as it is: records hold no pointers, so it pins nothing.
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
	return slab[:n]
}
