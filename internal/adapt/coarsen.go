package adapt

import "plum/internal/mesh"

// CoarsenStats summarizes one coarsening pass.
type CoarsenStats struct {
	// GroupsRemoved counts element sibling groups whose parent was
	// reinstated.
	GroupsRemoved int
	// ElemsRemoved counts child elements purged.
	ElemsRemoved int
	// FaceGroupsRemoved counts boundary-face sibling groups reinstated.
	FaceGroupsRemoved int
	// EdgesPurged and VertsPurged count objects removed by the cleanup
	// sweep.
	EdgesPurged int
	VertsPurged int
	// Rerefine is the statistics of the refinement pass that restores a
	// valid conforming mesh after the removals (the paper re-invokes the
	// refinement routine "to generate a valid mesh from the vertices left
	// after the coarsening").
	Rerefine RefineStats
}

// Coarsen performs one coarsening pass: every sibling group in which any
// child element has an edge marked MarkCoarsen is removed and its parent
// reinstated; boundary faces follow; orphaned edges and vertices are
// purged; and the refinement routine is re-invoked so that reinstated
// parents whose edges are still bisected (because neighbours remain
// refined) are re-subdivided to a valid pattern. Marks are consumed.
//
// Edges cannot be coarsened beyond the initial mesh: marks on level-0
// edges whose elements have no parent are simply ignored.
func (a *Adaptor) Coarsen() CoarsenStats {
	st := a.removeMarked()
	st.Rerefine = a.Refine()
	return st
}

// removeMarked is the removal half of Coarsen: it leaves the mesh possibly
// non-conforming, for the refinement routine to repair.
func (a *Adaptor) removeMarked() CoarsenStats {
	var st CoarsenStats

	// --- Phase 1: remove targeted sibling groups, deepest first, looping
	// so that multi-level trees unwind. ---
	for {
		n := a.removeElemGroups(&st)
		nf := a.removeFaceGroups(&st)
		if n+nf == 0 {
			break
		}
	}

	// --- Phase 2: purge orphaned edges and vertices. ---
	a.cleanup(&st)

	// --- Phase 3: consume the coarsen marks. ---
	a.clearMark(MarkCoarsen)
	a.touchedSlots = -1 // elements died and came back
	return st
}

// removeElemGroups does one sweep removing sibling groups triggered by
// coarsen marks and returns how many were removed. A group is removable
// when all children are active leaves (deeper levels must unwind first)
// and at least one child edge carries a coarsen mark. A reinstated parent
// may sit on an edge a neighbour keeps bisected, so it goes on the carry
// list for the re-refinement.
func (a *Adaptor) removeElemGroups(st *CoarsenStats) int {
	m := a.M
	removed := 0
	nElems := len(m.Elems)
	for ti := 0; ti < nElems; ti++ {
		t := &m.Elems[ti]
		first, n := t.Children()
		if t.Dead || n == 0 {
			continue
		}
		end := first + mesh.ElemID(n)
		all := true
		trigger := false
		for c := first; c < end; c++ {
			ch := &m.Elems[c]
			if !ch.Active() {
				all = false
				break
			}
			for _, e := range m.Tet(c).E {
				if a.MarkOf(e) == MarkCoarsen {
					trigger = true
				}
			}
		}
		if !all || !trigger {
			continue
		}
		for c := first; c < end; c++ {
			m.DeactivateElement(c)
			m.KillElement(c)
			st.ElemsRemoved++
		}
		m.ReactivateElement(mesh.ElemID(ti))
		a.carry = append(a.carry, mesh.ElemID(ti))
		removed++
		st.GroupsRemoved++
	}
	return removed
}

// removeFaceGroups reinstates boundary-face parents whose children became
// stale: a child face referencing an edge with no incident active element
// cannot survive (in a valid mesh every boundary edge bounds at least one
// element). This happens exactly when the adjacent element group was
// coarsened away.
func (a *Adaptor) removeFaceGroups(st *CoarsenStats) int {
	m := a.M
	removed := 0
	nFaces := m.FaceSlots()
	for fi := 0; fi < nFaces; fi++ {
		f := m.Face(mesh.FaceID(fi))
		first, n := f.Children()
		if f.Dead || n == 0 {
			continue
		}
		end := first + mesh.FaceID(n)
		all := true
		stale := false
		for c := first; c < end; c++ {
			cf := m.Face(c)
			if !cf.Active() {
				all = false
				break
			}
			for _, e := range cf.E {
				if m.Edge(e).NumElems() == 0 {
					stale = true
				}
			}
		}
		if !all || !stale {
			continue
		}
		for c := first; c < end; c++ {
			m.KillFace(c)
		}
		m.ReactivateFace(mesh.FaceID(fi))
		removed++
		st.FaceGroupsRemoved++
	}
	return removed
}

// cleanup purges orphaned refinement objects to a fixpoint: child-edge
// pairs with no users are removed and their parent edge reactivated;
// subdivision-created interior edges (spokes, mid-face edges, octahedron
// diagonals) with no incident elements are removed; midpoint vertices with
// empty incidence lists are removed.
func (a *Adaptor) cleanup(st *CoarsenStats) {
	m := a.M

	// Edges referenced by active boundary faces must survive.
	a.protected = a.protected.empty(m.EdgeSlots())
	protected := a.protected
	for _, f := range m.Faces() {
		if !f.Active() {
			continue
		}
		for _, e := range f.E {
			protected.add(int32(e))
		}
	}

	for changed := true; changed; {
		changed = false
		for ei, ed := range m.Edges() {
			if ed.Dead {
				continue
			}
			if ed.Bisected() {
				c0, c1 := ed.Child[0], ed.Child[1]
				if a.edgeUnused(c0, protected) && a.edgeUnused(c1, protected) {
					mid := ed.Mid
					m.KillEdge(c0)
					m.KillEdge(c1)
					m.ReactivateEdge(ei)
					st.EdgesPurged += 2
					if m.Vert(mid).NumEdges() == 0 {
						m.KillVertex(mid)
						st.VertsPurged++
					}
					changed = true
				}
				continue
			}
			// Interior subdivision edges have no parent linkage and were
			// created fresh; initial-mesh edges always retain incident
			// elements, so an element-free, face-free, parent-free edge is
			// refinement garbage.
			if ed.Parent == mesh.InvalidEdge && ed.NumElems() == 0 && !protected.has(int32(ei)) {
				v0, v1 := ed.V[0], ed.V[1]
				m.KillEdge(ei)
				st.EdgesPurged++
				for _, v := range [2]mesh.VertID{v0, v1} {
					if !m.Vert(v).Dead && m.Vert(v).NumEdges() == 0 {
						m.KillVertex(v)
						st.VertsPurged++
					}
				}
				changed = true
			}
		}
	}
}

// edgeUnused reports whether e can be purged: live, not further bisected,
// bounding no active element, and not referenced by an active boundary
// face.
func (a *Adaptor) edgeUnused(e mesh.EdgeID, protected bitset) bool {
	ed := a.M.Edge(e)
	return !ed.Dead && !ed.Bisected() && ed.NumElems() == 0 && !protected.has(int32(e))
}
