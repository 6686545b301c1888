package mesh

import (
	"fmt"
	"slices"
)

// Check verifies the structural invariants of the mesh and returns the
// first violation found, or nil. It is O(mesh size) and intended for tests
// and debugging, not hot paths.
//
// Invariants checked:
//   - every incidence list fits its carve, and the carve one page of its
//     block;
//   - every element slot has its Tet;
//   - elements [0, NumRoots) are exactly the level-0 elements, and each is
//     its own Root (the dual graph's vertex ids);
//   - every sibling group, of elements and of boundary faces, is an id
//     range of live members whose Parent is the group's parent, and every
//     live child lies in its parent's range;
//   - every active element references 6 live, unbisected edges whose
//     endpoints match the element's vertices per ElemEdgeVerts;
//   - every edge's element incidence list contains exactly the active
//     elements referencing it;
//   - every live edge stores its endpoints in ascending order and appears
//     on both endpoints' vertex incidence lists exactly once;
//   - no two live edges connect the same pair of vertices (FindEdge has no
//     index beside the vertex lists to enforce either);
//   - bisected edges have consistent children and midpoint;
//   - active elements have non-negative volume;
//   - active boundary faces reference live edges of the face's vertices;
//   - size counters match a full recount.
func (m *Mesh) Check() error {
	// Every vertex list lies in its carve, inside its block, so the views
	// read below cannot run past the block (edge lists: in the edge loop).
	for i, x := range m.Verts() {
		if err := checkCarve(&m.edgeBlk, x.edgeOff, x.nEdges, x.edgeCls, vertEdgeCap); err != nil {
			return fmt.Errorf("vertex %d: edge list %v", i, err)
		}
	}

	if m.tets.len() != len(m.Elems) {
		return fmt.Errorf("%d element records for %d Tets", len(m.Elems), m.tets.len())
	}
	// Recount incidence from scratch: how many active elements reference
	// each edge.
	inc := make([]int32, m.edges.len())
	nActiveElems := 0
	for i := range m.Elems {
		t := &m.Elems[i]
		if root := i < m.nRoots; root != (t.Level == 0) || root && t.Root != ElemID(i) {
			return fmt.Errorf("elem %d: level %d, root %d, but roots are the prefix [0, %d)", i, t.Level, t.Root, m.nRoots)
		}
		if err := checkGroup(len(m.Elems), ElemID(i), "elem", m.elemTree); err != nil {
			return err
		}
		if !t.Active() {
			continue
		}
		nActiveElems++
		tt := m.Tet(ElemID(i))
		for le, lv := range ElemEdgeVerts {
			e := tt.E[le]
			if e == InvalidEdge {
				return fmt.Errorf("elem %d: missing edge %d", i, le)
			}
			ed := m.Edge(e)
			if ed.Dead {
				return fmt.Errorf("elem %d: edge %d (local %d) is dead", i, e, le)
			}
			if ed.Bisected() {
				return fmt.Errorf("elem %d: edge %d (local %d) is bisected but element is active", i, e, le)
			}
			a, b := tt.V[lv[0]], tt.V[lv[1]]
			if edgeKey(a, b) != edgeKey(ed.V[0], ed.V[1]) {
				return fmt.Errorf("elem %d: edge %d endpoints %v != element vertices (%d,%d)", i, e, ed.V, a, b)
			}
			inc[e]++
		}
		if v := m.ElemVolume(ElemID(i)); v < 0 {
			return fmt.Errorf("elem %d: negative volume %g", i, v)
		}
	}
	if nActiveElems != m.nActiveElems {
		return fmt.Errorf("active element counter %d != recount %d", m.nActiveElems, nActiveElems)
	}

	// Vertex incidence lists must reference live edges that contain the
	// vertex. The scan counts each edge's entries on the list of each of
	// its ends, onList[2e+k] for end V[k], and notes at each vertex o the
	// list that last reached it, metAt[o]-1, and by which edge, metBy[o]:
	// a second edge reaching o from the same list connects the same two
	// vertices.
	onList := make([]uint16, 2*m.edges.len())
	metAt := make([]VertID, m.verts.len())
	metBy := make([]EdgeID, m.verts.len())
	for i, v := range m.Verts() {
		edges := m.VertEdges(i)
		if v.Dead {
			if len(edges) != 0 {
				return fmt.Errorf("vertex %d: dead but has incident edges", i)
			}
			continue
		}
		for _, e := range edges {
			ed := m.Edge(e)
			if ed.Dead {
				return fmt.Errorf("vertex %d: incident edge %d is dead", i, e)
			}
			k := 0
			switch i {
			case ed.V[0]:
			case ed.V[1]:
				k = 1
			default:
				return fmt.Errorf("vertex %d: incident edge %d does not contain it", i, e)
			}
			onList[2*int(e)+k]++
			o := ed.V[1-k]
			if metAt[o] == i+1 && metBy[o] != e {
				return fmt.Errorf("edge %d: edge %d connects the same vertices %v", metBy[o], e, ed.V)
			}
			metAt[o], metBy[o] = i+1, e
		}
	}

	nActiveEdges := 0
	for i, ed := range m.Edges() {
		if err := checkCarve(&m.elemBlk, ed.elemOff, ed.nElems, ed.elemCls, edgeElemCap); err != nil {
			return fmt.Errorf("edge %d: element list %v", i, err)
		}
		elems := m.EdgeElems(i)
		if ed.Dead {
			if len(elems) != 0 {
				return fmt.Errorf("edge %d: dead but has %d incident elements", i, len(elems))
			}
			continue
		}
		if !ed.Bisected() {
			nActiveEdges++
		}
		if int(inc[i]) != len(elems) {
			return fmt.Errorf("edge %d: incidence list has %d entries, recount %d", i, len(elems), inc[i])
		}
		// As many distinct active elements that reference the edge as
		// there are in all: the list is exactly those.
		for j, el := range elems {
			if el < 0 || int(el) >= len(m.Elems) || !m.Elems[el].Active() ||
				m.LocalEdgeOf(el, i) < 0 || slices.Contains(elems[:j], el) {
				return fmt.Errorf("edge %d: stale incidence entry elem %d", i, el)
			}
		}
		if ed.Bisected() {
			if ed.Mid == InvalidVert {
				return fmt.Errorf("edge %d: bisected without midpoint", i)
			}
			c0, c1 := m.Edge(ed.Child[0]), m.Edge(ed.Child[1])
			if edgeKey(c0.V[0], c0.V[1]) != edgeKey(ed.V[0], ed.Mid) {
				return fmt.Errorf("edge %d: child 0 endpoints wrong", i)
			}
			if edgeKey(c1.V[0], c1.V[1]) != edgeKey(ed.Mid, ed.V[1]) {
				return fmt.Errorf("edge %d: child 1 endpoints wrong", i)
			}
			if len(elems) != 0 {
				return fmt.Errorf("edge %d: bisected but still bounds %d active elements", i, len(elems))
			}
		}
		if ed.V[0] >= ed.V[1] {
			return fmt.Errorf("edge %d: endpoints %v not in ascending order", i, ed.V)
		}
		for k, v := range ed.V {
			if n := onList[2*int(i)+k]; n != 1 {
				return fmt.Errorf("edge %d: on vertex %d incidence list %d times, want 1", i, v, n)
			}
		}
	}
	if nActiveEdges != m.nActiveEdges {
		return fmt.Errorf("active edge counter %d != recount %d", m.nActiveEdges, nActiveEdges)
	}

	nActiveFaces := 0
	for i, f := range m.Faces() {
		if err := checkGroup(m.faces.len(), i, "face", m.faceTree); err != nil {
			return err
		}
		if !f.Active() {
			continue
		}
		nActiveFaces++
		pairs := [3][2]VertID{{f.V[0], f.V[1]}, {f.V[0], f.V[2]}, {f.V[1], f.V[2]}}
		for j, p := range pairs {
			e := f.E[j]
			if e == InvalidEdge {
				return fmt.Errorf("face %d: missing edge %d", i, j)
			}
			ed := m.Edge(e)
			if ed.Dead {
				return fmt.Errorf("face %d: edge %d dead", i, e)
			}
			if edgeKey(p[0], p[1]) != edgeKey(ed.V[0], ed.V[1]) {
				return fmt.Errorf("face %d: edge %d endpoints mismatch", i, e)
			}
		}
	}
	if nActiveFaces != m.nActiveFaces {
		return fmt.Errorf("active face counter %d != recount %d", m.nActiveFaces, nActiveFaces)
	}

	return nil
}

// checkCarve verifies that a list of n entries at off, carved with class
// cls of a list kind first carved at first, fits its carve, and the carve
// lies in one page of blk, within the slots in use.
func checkCarve[T any](blk *paged[T], off int32, n uint16, cls uint8, first int) error {
	c := int64(capOf(cls, first))
	end := int64(off) + c
	if int64(n) > c || off < 0 || end > int64(blk.len()) || c > 0 && off>>pageShift[T]() != int32((end-1)>>pageShift[T]()) {
		return fmt.Errorf("of %d entries at %d, carve of %d, runs past its carve, its page or its block of %d", n, off, c, blk.len())
	}
	return nil
}

// elemTree and faceTree read a record's refinement-tree fields for
// checkGroup: its parent, its sibling group and whether it is dead.
func (m *Mesh) elemTree(id ElemID) (ElemID, ElemID, int, bool) {
	t := &m.Elems[id]
	return t.Parent, t.kids, int(t.nKids), t.Dead
}

func (m *Mesh) faceTree(id FaceID) (FaceID, FaceID, int, bool) {
	f := m.Face(id)
	return f.Parent, f.kids, int(f.nKids), f.Dead
}

// checkGroup verifies the sibling-group invariants at record id of a slab
// of n records: its children are the in-slab ids [first, first+k), all
// live and each with id as its parent, and a live child lies in its
// parent's range.
func checkGroup[ID ~int32](n int, id ID, kind string, tree func(ID) (parent, first ID, k int, dead bool)) error {
	parent, first, k, dead := tree(id)
	if parent < -1 || int(parent) >= n {
		return fmt.Errorf("%s %d: parent %d outside the slab", kind, id, parent)
	}
	if k != 0 {
		end := first + ID(k)
		if first < 0 || int(end) > n {
			return fmt.Errorf("%s %d: child range [%d, %d) outside the slab", kind, id, first, end)
		}
		for c := first; c < end; c++ {
			cp, _, _, cdead := tree(c)
			if cp != id {
				return fmt.Errorf("%s %d: child range member %d has another parent %d", kind, id, c, cp)
			}
			if cdead {
				return fmt.Errorf("%s %d: child range [%d, %d) is partly dead (member %d)", kind, id, first, end, c)
			}
		}
	}
	if parent >= 0 && !dead {
		if _, pf, pk, _ := tree(parent); id < pf || id >= pf+ID(pk) {
			return fmt.Errorf("%s %d: not in its parent %d's child range [%d, %d)", kind, id, parent, pf, pf+ID(pk))
		}
	}
	return nil
}
