package adapt

import (
	"fmt"

	"plum/internal/mesh"
)

// RefineStats summarizes one refinement pass.
type RefineStats struct {
	// Propagations counts element pattern-upgrade visits during the
	// marking-propagation fixpoint (the process that requires
	// communication rounds in the parallel version).
	Propagations int
	// EdgesBisected is the number of edges split this pass.
	EdgesBisected int
	// Subdivided counts subdivided elements by kind (indexed by Kind).
	Subdivided [4]int
	// NewElems is the number of child elements created.
	NewElems int
	// FacesSubdivided is the number of boundary faces split.
	FacesSubdivided int
}

// TotalSubdivided returns the number of elements that were subdivided.
func (s RefineStats) TotalSubdivided() int {
	return s.Subdivided[KindHalf] + s.Subdivided[KindQuarter] + s.Subdivided[KindFull]
}

// PatternOf returns the element's current 6-bit pattern: local edges that
// are marked for refinement or already bisected (the latter occurs for
// parents reinstated by coarsening, which must be re-subdivided to restore
// a conforming mesh).
func (a *Adaptor) PatternOf(t *mesh.Element) Pattern {
	var p Pattern
	for le, e := range t.E {
		if a.M.Edges[e].Bisected() || a.MarkOf(e) == MarkRefine {
			p |= EdgeBit(le)
		}
	}
	return p
}

// Refine performs refinement rounds until the mesh is conforming: in the
// common case (fresh marks on a conforming mesh) a single round suffices,
// but after coarsening a reinstated parent may sit on a multi-level edge
// tree, in which case its children are split again in further rounds until
// no active element references a bisected edge.
func (a *Adaptor) Refine() RefineStats {
	var st RefineStats
	for {
		round := a.refineRound()
		st.add(round)
		if round.TotalSubdivided() == 0 && round.FacesSubdivided == 0 {
			return st
		}
	}
}

// add accumulates one round's statistics into s.
func (s *RefineStats) add(round RefineStats) {
	s.Propagations += round.Propagations
	s.EdgesBisected += round.EdgesBisected
	for k := range s.Subdivided {
		s.Subdivided[k] += round.Subdivided[k]
	}
	s.NewElems += round.NewElems
	s.FacesSubdivided += round.FacesSubdivided
}

// propagate upgrades element patterns to a fixpoint and returns the number
// of element visits. The worklist is seeded with every active element of
// cands (ascending, a superset of the nonzero patterns: the touched set)
// whose pattern is nonzero; upgrades spread through edge incidence lists.
func (a *Adaptor) propagate(cands []mesh.ElemID) int {
	m := a.M
	visits := 0
	queue := a.queue[:0]
	a.queued = a.queued.empty(len(m.Elems))
	queued := a.queued
	push := func(el mesh.ElemID) {
		if !queued.has(int32(el)) && m.Elems[el].Active() {
			queued.add(int32(el))
			queue = append(queue, el)
		}
	}
	for _, el := range cands {
		if a.PatternOf(&m.Elems[el]) != 0 {
			push(el)
		}
	}
	for len(queue) > 0 {
		el := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		queued.remove(int32(el))
		t := &m.Elems[el]
		if !t.Active() {
			continue
		}
		visits++
		p := a.PatternOf(t)
		up := p.Upgrade()
		add := up &^ p
		if add == 0 {
			continue
		}
		for le := 0; le < 6; le++ {
			if !add.Has(le) {
				continue
			}
			e := t.E[le]
			a.SetMark(e, MarkRefine)
			// Neighbours sharing the newly marked edge must re-check
			// their patterns (this is the communication step in the
			// distributed implementation).
			for _, nb := range m.EdgeElems(e) {
				push(nb)
			}
		}
	}
	a.queue = queue
	return visits
}

// refineRound performs one refinement pass: it upgrades element patterns
// to the valid set {1:2, 1:4, 1:8} with full propagation, sizes the mesh
// slabs for what the final patterns will create, bisects every targeted
// edge, independently subdivides each element according to its final
// binary pattern, splits boundary faces to match, and consumes the refine
// marks. Every element walk is a walk of the touched set in ascending id
// order, the order of the slab, so ids and creation order are those a slab
// scan gives.
func (a *Adaptor) refineRound() RefineStats {
	var st RefineStats
	m := a.M

	// --- Phase 1: marking propagation to a fixpoint. ---
	st.Propagations = a.propagate(a.Touched())
	touched, edges := a.Touched(), a.refineEdges()
	m.Reserve(a.roundGrowth(touched, edges))

	// --- Phase 2: bisect all targeted edges. ---
	// BisectEdge creates new edges (never marked), so the list stays whole.
	for _, e := range edges {
		if ed := &m.Edges[e]; !ed.Dead && !ed.Bisected() {
			m.BisectEdge(e)
			st.EdgesBisected++
		}
	}

	// --- Phase 3: subdivide each element independently. ---
	nElems := len(m.Elems)
	for _, el := range touched {
		p := a.bisectedPattern(&m.Elems[el])
		if p == 0 {
			continue
		}
		if !p.Valid() {
			panic(fmt.Sprintf("adapt: element %d has invalid final pattern %06b", el, p))
		}
		kids := a.subdivideElem(el, p)
		st.Subdivided[p.Kind()]++
		st.NewElems += kids
	}
	// Every touched element on a bisected edge is now subdivided. A child
	// lands on one only when the edge's halves were already split before
	// the round (after coarsening); the next round takes it from the carry
	// list.
	a.carry = a.carry[:0]
	for ti := nElems; ti < len(m.Elems); ti++ {
		if a.bisectedPattern(&m.Elems[ti]) != 0 {
			a.carry = append(a.carry, mesh.ElemID(ti))
		}
	}

	// --- Phase 4: split boundary faces to match their edges. ---
	st.FacesSubdivided = a.refineFaces()

	// --- Phase 5: consume the refine marks. ---
	a.clearMark(MarkRefine)
	return st
}

// bisectedPattern returns the pattern of the element's bisected edges.
func (a *Adaptor) bisectedPattern(t *mesh.Element) Pattern {
	var p Pattern
	for le, e := range t.E {
		if a.M.Edges[e].Bisected() {
			p |= EdgeBit(le)
		}
	}
	return p
}

// roundGrowth returns how many vertices, edges, elements and boundary
// faces the round will create, from the patterns the propagation fixpoint
// left over the touched elements and the refine-marked edges: a midpoint
// per marked unbisected edge; the children of every
// element with a nonzero pattern; two half-edges per bisection, the
// octahedron diagonal of every 1:8, and the edges interior to each split
// element face (one when one of its edges is bisected, three when all are),
// counted from the lowest-numbered active element on the face. The vertex,
// element and face counts are exact. The edge count is exact on a
// conforming mesh and an upper bound after coarsening, where a reinstated
// parent's face may already carry the interior edges its refined
// neighbour's children use.
func (a *Adaptor) roundGrowth(touched []mesh.ElemID, edges []mesh.EdgeID) (nv, ne, nt, nf int) {
	m := a.M
	for _, e := range edges {
		if a.activeEdge(e) {
			nv++
		}
	}
	ne = 2 * nv
	for _, el := range touched {
		t := &m.Elems[el]
		p := a.PatternOf(t)
		if p == 0 {
			continue
		}
		nt += p.Kind().Children()
		if p == PatternFull {
			ne++
		}
		for f, fe := range mesh.ElemFaceEdges {
			split := 0
			for _, le := range fe {
				if p.Has(le) {
					split++
				}
			}
			if split != 0 && !a.lowerAcrossFace(el, f) {
				ne += split // 1 or 3: a valid pattern never splits two edges of a face
			}
		}
	}
	for fi := range m.Faces {
		f := &m.Faces[fi]
		if !f.Active() {
			continue
		}
		split := 0
		for _, e := range f.E {
			if m.Edges[e].Bisected() || a.MarkOf(e) == MarkRefine {
				split++
			}
		}
		if split != 0 {
			nf += split + 1 // 2 or 4 child faces
		}
	}
	return nv, ne, nt, nf
}

// lowerAcrossFace reports whether a lower-numbered active element shares
// local face f of element el: it is on the incidence list of one of the
// face's edges and references a second one.
func (a *Adaptor) lowerAcrossFace(el mesh.ElemID, f int) bool {
	m := a.M
	t := &m.Elems[el]
	fe := mesh.ElemFaceEdges[f]
	for _, nb := range m.EdgeElems(t.E[fe[0]]) {
		if nb < el && m.LocalEdgeOf(nb, t.E[fe[1]]) >= 0 {
			return true
		}
	}
	return false
}

// mid returns the midpoint vertex of the element's local edge le.
func (a *Adaptor) mid(t *mesh.Element, le int) mesh.VertID {
	return a.M.Edges[t.E[le]].Mid
}

// subdivideElem splits element el according to its valid nonzero pattern
// and returns the number of children created.
func (a *Adaptor) subdivideElem(el mesh.ElemID, p Pattern) int {
	m := a.M
	t := &m.Elems[el]
	v := t.V
	root := t.Root
	level := t.Level + 1

	// Capture midpoints before any append invalidates t.
	var mids [6]mesh.VertID
	for le := 0; le < 6; le++ {
		if p.Has(le) {
			mids[le] = a.mid(t, le)
		} else {
			mids[le] = mesh.InvalidVert
		}
	}

	// The children are consecutive AddElement calls: el's sibling group.
	m.DeactivateElement(el)
	add := func(a0, a1, a2, a3 mesh.VertID) {
		m.AddElement(a0, a1, a2, a3, el, root, level)
	}

	switch p.Kind() {
	case KindHalf:
		// 1:2 — bisect one edge; each child replaces one endpoint of the
		// split edge by the midpoint.
		le := p.SoleEdge()
		lv := mesh.ElemEdgeVerts[le]
		others := mesh.ElemEdgeVerts[5-le] // the opposite edge's two vertices
		mid := mids[le]
		add(v[lv[0]], mid, v[others[0]], v[others[1]])
		add(mid, v[lv[1]], v[others[0]], v[others[1]])

	case KindQuarter:
		// 1:4 — one face fully bisected; three corner children plus the
		// centre child over the mid-face triangle, all with the apex.
		f := p.FaceOf()
		fv := mesh.ElemFaceVerts[f]
		apex := 0 + 1 + 2 + 3 - fv[0] - fv[1] - fv[2]
		mab := mids[mesh.LocalEdge(fv[0], fv[1])]
		mac := mids[mesh.LocalEdge(fv[0], fv[2])]
		mbc := mids[mesh.LocalEdge(fv[1], fv[2])]
		add(v[fv[0]], mab, mac, v[apex])
		add(mab, v[fv[1]], mbc, v[apex])
		add(mac, mbc, v[fv[2]], v[apex])
		add(mab, mbc, mac, v[apex])

	case KindFull:
		// 1:8 — four corner children plus the inner octahedron split into
		// four along its shortest diagonal.
		// Corner children: each original vertex with the midpoints of its
		// three incident edges.
		for i := 0; i < 4; i++ {
			var ms [3]mesh.VertID
			k := 0
			for j := 0; j < 4; j++ {
				if j == i {
					continue
				}
				ms[k] = mids[mesh.LocalEdge(i, j)]
				k++
			}
			add(v[i], ms[0], ms[1], ms[2])
		}
		// Octahedron diagonals connect midpoints of opposite edges:
		// local edge pairs (0,5), (1,4), (2,3). The equator of each
		// diagonal is a 4-cycle of the remaining midpoints.
		diags := [3][2]int{{0, 5}, {1, 4}, {2, 3}}
		equators := [3][4]int{
			{1, 3, 4, 2}, // around diagonal m01–m23
			{0, 3, 5, 2}, // around diagonal m02–m13
			{0, 1, 5, 4}, // around diagonal m03–m12
		}
		best, bestLen := 0, -1.0
		for d, pr := range diags {
			l := m.Verts[mids[pr[0]]].Pos.Dist(m.Verts[mids[pr[1]]].Pos)
			if bestLen < 0 || l < bestLen {
				best, bestLen = d, l
			}
		}
		d0, d1 := mids[diags[best][0]], mids[diags[best][1]]
		eq := equators[best]
		for i := 0; i < 4; i++ {
			add(d0, d1, mids[eq[i]], mids[eq[(i+1)%4]])
		}
	}

	_, n := m.Elems[el].Children()
	return n
}

// refineFaces splits every active boundary face whose edges were bisected,
// matching the adjacent element subdivision. A face sees either one or all
// three of its edges bisected (a consequence of the valid element
// patterns); anything else indicates a broken invariant.
func (a *Adaptor) refineFaces() int {
	m := a.M
	n := 0
	nFaces := len(m.Faces)
	for fi := 0; fi < nFaces; fi++ {
		f := &m.Faces[fi]
		if !f.Active() {
			continue
		}
		var split [3]bool
		cnt := 0
		for i, e := range f.E {
			if m.Edges[e].Bisected() {
				split[i] = true
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		v := f.V
		// Edge order within a face: E[0]=(V0,V1), E[1]=(V0,V2), E[2]=(V1,V2).
		midOf := func(i int) mesh.VertID { return m.Edges[f.E[i]].Mid }
		id := mesh.FaceID(fi)
		switch cnt {
		case 1:
			// Split into two triangles through the midpoint and the
			// opposite vertex.
			switch {
			case split[0]:
				mid := midOf(0)
				m.AddChildFace(id, v[0], mid, v[2])
				m.AddChildFace(id, mid, v[1], v[2])
			case split[1]:
				mid := midOf(1)
				m.AddChildFace(id, v[0], mid, v[1])
				m.AddChildFace(id, mid, v[2], v[1])
			default:
				mid := midOf(2)
				m.AddChildFace(id, v[1], mid, v[0])
				m.AddChildFace(id, mid, v[2], v[0])
			}
		case 3:
			m01, m02, m12 := midOf(0), midOf(1), midOf(2)
			m.AddChildFace(id, v[0], m01, m02)
			m.AddChildFace(id, m01, v[1], m12)
			m.AddChildFace(id, m02, m12, v[2])
			m.AddChildFace(id, m01, m12, m02)
		default:
			panic(fmt.Sprintf("adapt: boundary face %d has %d bisected edges", fi, cnt))
		}
		m.DeactivateFace(id)
		n++
	}
	return n
}
