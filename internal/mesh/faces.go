package mesh

// AddChildFace creates an active boundary face over the three vertices as
// a child of parent, inheriting its patch, and adds it to the parent's
// sibling group, which consecutive calls build (see BoundaryFace.Children).
// The caller must deactivate the parent (DeactivateFace) once all children
// are added.
func (m *Mesh) AddChildFace(parent FaceID, v0, v1, v2 VertID) FaceID {
	p := m.Face(parent)
	id := m.AddBoundaryFace(v0, v1, v2, p.Patch)
	m.Face(id).Parent = parent
	addChild(&p.kids, &p.nKids, id)
	return id
}

// DeactivateFace marks a face as subdivided (it must have children by the
// time the mesh is validated).
func (m *Mesh) DeactivateFace(f FaceID) { m.nActiveFaces-- }

// ReactivateFace forgets the sibling group of a subdivided face, which the
// caller has killed, making it an active leaf again (coarsening
// reinstatement).
func (m *Mesh) ReactivateFace(f FaceID) {
	x := m.Face(f)
	x.kids, x.nKids = 0, 0
	m.nActiveFaces++
}

// KillFace marks an active leaf face dead so compaction drops it.
func (m *Mesh) KillFace(f FaceID) {
	x := m.Face(f)
	if x.Active() {
		m.nActiveFaces--
	}
	x.Dead = true
}
