package mesh

// Rebase forgets the refinement history and promotes every active element
// (and edge) to level 0, making the *current* mesh the new "initial" mesh.
//
// This implements the paper's remedy for very small initial meshes: "one
// can then allow the initial mesh to be adapted one or more times before
// using the dual graph for all future adaptions" — after Rebase, the dual
// graph built from this mesh has one vertex per current element, and
// coarsening can no longer undo the pre-adaption (edges cannot be
// coarsened beyond the new initial mesh). The compaction renumbers the
// vertices; Renumbering holds the map for vertex-indexed fields to follow.
func (m *Mesh) Rebase() {
	// Kill retained parents (inactive, subdivided objects) so compaction
	// drops them, then clear tree linkage on the survivors.
	for i := range m.Elems {
		t := &m.Elems[i]
		if t.Dead {
			continue
		}
		if !t.Active() {
			t.Dead = true
		}
	}
	for i := range m.Faces {
		f := &m.Faces[i]
		if f.Dead {
			continue
		}
		if !f.Active() {
			f.Dead = true
		}
	}
	for i := range m.Edges {
		e := &m.Edges[i]
		if e.Dead {
			continue
		}
		if e.Bisected() {
			// The children survive; the parent's linkage dies with it.
			e.Dead = true
			for _, v := range e.V {
				lst := m.Verts[v].Edges
				for j, x := range lst {
					if x == EdgeID(i) {
						lst[j] = lst[len(lst)-1]
						m.Verts[v].Edges = lst[:len(lst)-1]
						break
					}
				}
			}
		}
	}

	m.Compact()

	for i := range m.Elems {
		t := &m.Elems[i]
		t.Parent = InvalidElem
		t.Root = ElemID(i)
		t.Level = 0
		t.Children = t.Children[:0]
	}
	for i := range m.Edges {
		e := &m.Edges[i]
		e.Parent = InvalidEdge
		e.Child = [2]EdgeID{InvalidEdge, InvalidEdge}
		e.Mid = InvalidVert
	}
	for i := range m.Faces {
		f := &m.Faces[i]
		f.Parent = InvalidFace
		f.Children = f.Children[:0]
	}
	// The history the bisection log describes is gone; the renumbering
	// is still owed to whoever holds a vertex field.
	m.Bisections = m.Bisections[:0]
}
