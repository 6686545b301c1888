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
//   - elements [0, NumRoots) are exactly the level-0 elements, and each is
//     its own Root (the dual graph's vertex ids);
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
	// Recount incidence from scratch: how many active elements reference
	// each edge.
	inc := make([]int32, len(m.Edges))
	nActiveElems := 0
	for i := range m.Elems {
		t := &m.Elems[i]
		if root := i < m.nRoots; root != (t.Level == 0) || root && t.Root != ElemID(i) {
			return fmt.Errorf("elem %d: level %d, root %d, but roots are the prefix [0, %d)", i, t.Level, t.Root, m.nRoots)
		}
		if !t.Active() {
			continue
		}
		nActiveElems++
		for le, lv := range ElemEdgeVerts {
			e := t.E[le]
			if e == InvalidEdge {
				return fmt.Errorf("elem %d: missing edge %d", i, le)
			}
			ed := &m.Edges[e]
			if ed.Dead {
				return fmt.Errorf("elem %d: edge %d (local %d) is dead", i, e, le)
			}
			if ed.Bisected() {
				return fmt.Errorf("elem %d: edge %d (local %d) is bisected but element is active", i, e, le)
			}
			a, b := t.V[lv[0]], t.V[lv[1]]
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

	nActiveEdges := 0
	for i := range m.Edges {
		ed := &m.Edges[i]
		if ed.Dead {
			if len(ed.Elems) != 0 {
				return fmt.Errorf("edge %d: dead but has %d incident elements", i, len(ed.Elems))
			}
			continue
		}
		if !ed.Bisected() {
			nActiveEdges++
		}
		if int(inc[i]) != len(ed.Elems) {
			return fmt.Errorf("edge %d: incidence list has %d entries, recount %d", i, len(ed.Elems), inc[i])
		}
		// As many distinct active elements that reference the edge as
		// there are in all: the list is exactly those.
		for j, el := range ed.Elems {
			if el < 0 || int(el) >= len(m.Elems) || !m.Elems[el].Active() ||
				m.LocalEdgeOf(el, EdgeID(i)) < 0 || slices.Contains(ed.Elems[:j], el) {
				return fmt.Errorf("edge %d: stale incidence entry elem %d", i, el)
			}
		}
		if ed.Bisected() {
			if ed.Mid == InvalidVert {
				return fmt.Errorf("edge %d: bisected without midpoint", i)
			}
			c0, c1 := &m.Edges[ed.Child[0]], &m.Edges[ed.Child[1]]
			if edgeKey(c0.V[0], c0.V[1]) != edgeKey(ed.V[0], ed.Mid) {
				return fmt.Errorf("edge %d: child 0 endpoints wrong", i)
			}
			if edgeKey(c1.V[0], c1.V[1]) != edgeKey(ed.Mid, ed.V[1]) {
				return fmt.Errorf("edge %d: child 1 endpoints wrong", i)
			}
			if len(ed.Elems) != 0 {
				return fmt.Errorf("edge %d: bisected but still bounds %d active elements", i, len(ed.Elems))
			}
		}
		if ed.V[0] >= ed.V[1] {
			return fmt.Errorf("edge %d: endpoints %v not in ascending order", i, ed.V)
		}
		for _, v := range ed.V {
			n := 0
			for _, e := range m.Verts[v].Edges {
				if e == EdgeID(i) {
					n++
				} else if m.Edges[e].V == ed.V {
					return fmt.Errorf("edge %d: edge %d connects the same vertices %v", i, e, ed.V)
				}
			}
			if n != 1 {
				return fmt.Errorf("edge %d: on vertex %d incidence list %d times, want 1", i, v, n)
			}
		}
	}
	if nActiveEdges != m.nActiveEdges {
		return fmt.Errorf("active edge counter %d != recount %d", m.nActiveEdges, nActiveEdges)
	}

	nActiveFaces := 0
	for i := range m.Faces {
		f := &m.Faces[i]
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
			ed := &m.Edges[e]
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

	// Vertex incidence lists must reference live edges that contain the vertex.
	for i := range m.Verts {
		v := &m.Verts[i]
		if v.Dead {
			if len(v.Edges) != 0 {
				return fmt.Errorf("vertex %d: dead but has incident edges", i)
			}
			continue
		}
		for _, e := range v.Edges {
			ed := &m.Edges[e]
			if ed.Dead {
				return fmt.Errorf("vertex %d: incident edge %d is dead", i, e)
			}
			if ed.V[0] != VertID(i) && ed.V[1] != VertID(i) {
				return fmt.Errorf("vertex %d: incident edge %d does not contain it", i, e)
			}
		}
	}
	return nil
}
