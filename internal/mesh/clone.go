package mesh

import "slices"

// Clone returns a deep copy of the mesh. The experiment harness uses this
// to run one generated mesh through many independent adaption/partition
// scenarios without regenerating it. The records hold no pointers, so it
// copies the forest slab whole and every other slab page by page: one
// allocation per page in use, plus one per page table and the forest
// slab.
func (m *Mesh) Clone() *Mesh {
	return &Mesh{
		Elems:        slices.Clone(m.Elems),
		Renumbering:  slices.Clone(m.Renumbering),
		verts:        m.verts.clone(),
		edges:        m.edges.clone(),
		faces:        m.faces.clone(),
		tets:         m.tets.clone(),
		bisections:   m.bisections.clone(),
		edgeBlk:      m.edgeBlk.clone(),
		elemBlk:      m.elemBlk.clone(),
		nRoots:       m.nRoots,
		nActiveElems: m.nActiveElems,
		nActiveEdges: m.nActiveEdges,
		nActiveFaces: m.nActiveFaces,
	}
}
