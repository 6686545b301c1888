package mesh

import "slices"

// Clone returns a deep copy of the mesh. The experiment harness uses this
// to run one generated mesh through many independent adaption/partition
// scenarios without regenerating it. The records hold no pointers, so it
// copies each slab and list block whole: a constant number of allocations
// whatever the mesh's size.
func (m *Mesh) Clone() *Mesh {
	return &Mesh{
		Verts:        slices.Clone(m.Verts),
		Edges:        slices.Clone(m.Edges),
		Elems:        slices.Clone(m.Elems),
		Faces:        slices.Clone(m.Faces),
		Bisections:   slices.Clone(m.Bisections),
		Renumbering:  slices.Clone(m.Renumbering),
		edgeBlk:      slices.Clone(m.edgeBlk),
		elemBlk:      slices.Clone(m.elemBlk),
		nRoots:       m.nRoots,
		nActiveElems: m.nActiveElems,
		nActiveEdges: m.nActiveEdges,
		nActiveFaces: m.nActiveFaces,
	}
}
