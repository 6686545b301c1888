package mesh

// AddChildFace creates an active boundary face over the three vertices as
// a child of parent, inheriting its patch. The caller must deactivate the
// parent (DeactivateFace) once all children are added.
func (m *Mesh) AddChildFace(parent FaceID, v0, v1, v2 VertID) FaceID {
	id := m.AddBoundaryFace(v0, v1, v2, m.Faces[parent].Patch)
	m.Faces[id].Parent = parent
	m.Faces[parent].Children = push(&m.faceSlab, m.Faces[parent].Children, id, faceChildCap)
	return id
}

// DeactivateFace marks a face as subdivided (it must have children by the
// time the mesh is validated).
func (m *Mesh) DeactivateFace(f FaceID) { m.nActiveFaces-- }

// ReactivateFace clears the child list of a subdivided face, making it an
// active leaf again (coarsening reinstatement).
func (m *Mesh) ReactivateFace(f FaceID) {
	m.Faces[f].Children = m.Faces[f].Children[:0]
	m.nActiveFaces++
}

// KillFace marks an active leaf face dead so compaction drops it.
func (m *Mesh) KillFace(f FaceID) {
	if m.Faces[f].Active() {
		m.nActiveFaces--
	}
	m.Faces[f].Dead = true
}
