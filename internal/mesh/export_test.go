package mesh

import "unsafe"

// Pages returns how many pages each paged slab of m has in use: the
// vertices, the edges, the boundary faces, the Tets, the bisection log,
// the edge-list block and the element-list block.
func (m *Mesh) Pages() [7]int {
	return [7]int{len(m.verts.pages), len(m.edges.pages), len(m.faces.pages), len(m.tets.pages),
		len(m.bisections.pages), len(m.edgeBlk.pages), len(m.elemBlk.pages)}
}

// VertEdgesInPage and EdgeElemsInPage report whether the view VertEdges or
// EdgeElems returns lies, first entry to last, inside one page in use of
// its block.
func (m *Mesh) VertEdgesInPage(v VertID) bool { return inPage(&m.edgeBlk, m.VertEdges(v)) }
func (m *Mesh) EdgeElemsInPage(e EdgeID) bool { return inPage(&m.elemBlk, m.EdgeElems(e)) }

func inPage[T any](blk *paged[T], l []T) bool {
	if len(l) == 0 {
		return true
	}
	first, last := uintptr(unsafe.Pointer(&l[0])), uintptr(unsafe.Pointer(&l[len(l)-1]))
	for _, pg := range blk.pages {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(pg)))
		hi := lo + uintptr(len(pg))*unsafe.Sizeof(l[0])
		if lo <= first && first < hi {
			return last < hi
		}
	}
	return false
}
