package adapt

import (
	"fmt"

	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/propagate"
)

// RefineStats summarizes one refinement pass.
type RefineStats struct {
	// Propagations counts the propagation engine's element visits
	// (propagate.Result.Visits) over the pass's marking closures, which
	// take communication rounds in the parallel version. They follow the
	// frontier alone: the serial kernel and ParallelRefine count the same.
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

// PatternOf returns element el's current 6-bit pattern: local edges that
// are marked for refinement or already bisected (the latter occurs for
// parents reinstated by coarsening, which must be re-subdivided to restore
// a conforming mesh).
func (a *Adaptor) PatternOf(el mesh.ElemID) Pattern {
	var p Pattern
	for le, e := range a.M.Tet(el).E {
		if a.M.Edge(e).Bisected() || a.MarkOf(e) == MarkRefine {
			p |= EdgeBit(le)
		}
	}
	return p
}

// Refine performs refinement rounds until the mesh is conforming, each
// round closing the refine marks and then subdividing what they require
// (see Subdivide): in the common case (fresh marks on a conforming mesh) a
// single round suffices, but after coarsening a reinstated parent may sit
// on a multi-level edge tree, in which case its children are split again
// in further rounds until no active element references a bisected edge.
func (a *Adaptor) Refine() RefineStats {
	return a.Subdivide(a.close(a.Touched()))
}

// Subdivide completes a refinement whose first round's marks are already
// closed, by the serial closure or by a caller's own run of the
// propagation engine on World; visits is that closure's visit count. It
// subdivides what the marks require, and each carry round after the
// first closes its own marks serially before it subdivides.
func (a *Adaptor) Subdivide(visits int) RefineStats {
	st := RefineStats{Propagations: visits}
	for {
		round := a.refineRound()
		st.add(round)
		if round.TotalSubdivided() == 0 && round.FacesSubdivided == 0 {
			return st
		}
		st.Propagations += a.close(a.Touched())
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

// World is the adaptor's marking closure as a propagate.World on one
// rank: an element proposes the edges its pattern upgrade adds, a commit
// marks the edge MarkRefine, and a marked edge reaches the active
// elements around it. Every element is rank 0's and no edge is shared;
// the distributed layer overrides Owner and SPL with its P ranks'.
type World struct{ a *Adaptor }

// World returns the adaptor's propagation world.
func (a *Adaptor) World() World { return World{a} }

// Owner puts every element on rank 0.
func (World) Owner(int32) int32 { return 0 }

// Propose appends the edges the pattern upgrade of active element el adds.
func (w World) Propose(el int32, buf []int32) []int32 {
	t := w.a.M.Tet(mesh.ElemID(el))
	p := w.a.PatternOf(mesh.ElemID(el))
	add := p.Upgrade() &^ p
	for le := 0; le < 6; le++ {
		if add.Has(le) {
			buf = append(buf, int32(t.E[le]))
		}
	}
	return buf
}

// Commit marks edge e for refinement.
func (w World) Commit(e int32) { w.a.SetMark(mesh.EdgeID(e), MarkRefine) }

// Reach appends the active elements on edge e: their patterns grew.
func (w World) Reach(e int32, elems []int32) []int32 {
	m := w.a.M
	for _, nb := range m.EdgeElems(mesh.EdgeID(e)) {
		if m.Elems[nb].Active() {
			elems = append(elems, int32(nb))
		}
	}
	return elems
}

// SPL lists no rank: on one rank no edge is shared.
func (World) SPL(_ int32, spl []int32) []int32 { return spl }

// Seed appends to buf the frontier a round's closure starts from, the
// touched elements with a nonzero pattern (ascending), and returns it.
func (w World) Seed(buf []int32) []int32 { return w.a.seed(buf, w.a.Touched()) }

// seed appends to buf the active elements of cands (ascending) whose
// pattern is nonzero.
func (a *Adaptor) seed(buf []int32, cands []mesh.ElemID) []int32 {
	for _, el := range cands {
		if a.M.Elems[el].Active() && a.PatternOf(el) != 0 {
			buf = append(buf, int32(el))
		}
	}
	return buf
}

// close upgrades element patterns to a fixpoint from the elements of
// cands (the touched set, or a superset) with a nonzero pattern, through
// the propagation engine on one rank, uncharged, and returns its visits.
func (a *Adaptor) close(cands []mesh.ElemID) int {
	a.clk.Reset(1)
	eng := propagate.Engine{Scratch: &a.prop}
	return int(eng.Run(a.World(), a.seed(a.prop.Seed(), cands), &a.clk, machine.Model{}).Visits)
}

// refineRound performs one refinement pass on closed marks (every
// pattern in the valid set {1:2, 1:4, 1:8}): it sizes the element slab for
// what the patterns will create, bisects every targeted edge,
// independently subdivides each element according to its final binary
// pattern, splits boundary faces to match, and consumes the refine marks.
// Every element walk is a walk of the touched set in ascending id order,
// the order of the slab, so ids and creation order are those a slab scan
// gives.
func (a *Adaptor) refineRound() RefineStats {
	var st RefineStats
	m := a.M

	touched, edges := a.Touched(), a.refineEdges()
	m.Reserve(a.roundGrowth(touched))

	// --- Phase 1: bisect all targeted edges. ---
	// BisectEdge creates new edges (never marked), so the list stays whole.
	for _, e := range edges {
		if ed := m.Edge(e); !ed.Dead && !ed.Bisected() {
			m.BisectEdge(e)
			st.EdgesBisected++
		}
	}

	// --- Phase 2: subdivide each element independently. ---
	nElems := len(m.Elems)
	for _, el := range touched {
		p := a.bisectedPattern(el)
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
		if a.bisectedPattern(mesh.ElemID(ti)) != 0 {
			a.carry = append(a.carry, mesh.ElemID(ti))
		}
	}

	// --- Phase 3: split boundary faces to match their edges. ---
	st.FacesSubdivided = a.refineFaces()

	// --- Phase 4: consume the refine marks. ---
	a.clearMark(MarkRefine)
	return st
}

// bisectedPattern returns the pattern of element el's bisected edges.
func (a *Adaptor) bisectedPattern(el mesh.ElemID) Pattern {
	var p Pattern
	for le, e := range a.M.Tet(el).E {
		if a.M.Edge(e).Bisected() {
			p |= EdgeBit(le)
		}
	}
	return p
}

// roundGrowth returns how many elements the round will create, from the
// patterns the propagation fixpoint left over the touched elements: the
// children of every element with a nonzero pattern.
func (a *Adaptor) roundGrowth(touched []mesh.ElemID) (nt int) {
	for _, el := range touched {
		if p := a.PatternOf(el); p != 0 {
			nt += p.Kind().Children()
		}
	}
	return nt
}

// A subdivision's points are the parent's four corners, numbered 0-3 as
// its vertices, and the midpoints of its split edges: midPt(le) for local
// edge le.
func midPt(le int) int { return 4 + le }

// subdivideElem splits element el according to its valid nonzero pattern
// and returns the number of children created. Each child is handed the
// edges the subdivision already knows — the parent's unsplit edges, the
// halves of its split ones, and each face-interior edge once a sibling
// has found or created it — so only a face-interior edge's first use
// searches (a neighbour across the face may have made it), and the 1:8
// diagonal, interior to the parent, is created without a search.
func (a *Adaptor) subdivideElem(el mesh.ElemID, p Pattern) int {
	m := a.M
	root := m.Elems[el].Root
	level := int32(m.Elems[el].Level) + 1
	t := m.Tet(el)

	// pts are the subdivision's points; edge[i][j] is the edge between
	// points i and j plus one, so the zero value is InvalidEdge, unknown.
	var pts [10]mesh.VertID
	var edge [10][10]mesh.EdgeID
	set := func(i, j int, e mesh.EdgeID) { edge[i][j], edge[j][i] = e+1, e+1 }
	copy(pts[:], t.V[:])
	for le, e := range t.E {
		i, j := mesh.ElemEdgeVerts[le][0], mesh.ElemEdgeVerts[le][1]
		if !p.Has(le) {
			set(i, j, e)
			continue
		}
		// Child[0] joins V[0] to the midpoint, Child[1] the midpoint to V[1].
		ed := m.Edge(e)
		hi, hj := ed.Child[0], ed.Child[1]
		if pts[i] != ed.V[0] {
			hi, hj = hj, hi
		}
		pts[midPt(le)] = ed.Mid
		set(i, midPt(le), hi)
		set(j, midPt(le), hj)
	}

	// The children are consecutive AddElementEdges calls: el's sibling
	// group.
	m.DeactivateElement(el)
	add := func(q0, q1, q2, q3 int) {
		q := [4]int{q0, q1, q2, q3}
		var e [6]mesh.EdgeID
		for i, lv := range mesh.ElemEdgeVerts {
			e[i] = edge[q[lv[0]]][q[lv[1]]] - 1
		}
		m.AddElementEdges([4]mesh.VertID{pts[q0], pts[q1], pts[q2], pts[q3]}, &e, el, root, level)
		for i, lv := range mesh.ElemEdgeVerts {
			set(q[lv[0]], q[lv[1]], e[i])
		}
	}

	switch p.Kind() {
	case KindHalf:
		// 1:2 — bisect one edge; each child replaces one endpoint of the
		// split edge by the midpoint.
		le := p.SoleEdge()
		lv := mesh.ElemEdgeVerts[le]
		others := mesh.ElemEdgeVerts[5-le] // the opposite edge's two vertices
		add(lv[0], midPt(le), others[0], others[1])
		add(midPt(le), lv[1], others[0], others[1])

	case KindQuarter:
		// 1:4 — one face fully bisected; three corner children plus the
		// centre child over the mid-face triangle, all with the apex.
		f := p.FaceOf()
		fv := mesh.ElemFaceVerts[f]
		apex := 0 + 1 + 2 + 3 - fv[0] - fv[1] - fv[2]
		mab := midPt(mesh.LocalEdge(fv[0], fv[1]))
		mac := midPt(mesh.LocalEdge(fv[0], fv[2]))
		mbc := midPt(mesh.LocalEdge(fv[1], fv[2]))
		add(fv[0], mab, mac, apex)
		add(mab, fv[1], mbc, apex)
		add(mac, mbc, fv[2], apex)
		add(mab, mbc, mac, apex)

	case KindFull:
		// 1:8 — four corner children plus the inner octahedron split into
		// four along its shortest diagonal.
		// Corner children: each original vertex with the midpoints of its
		// three incident edges.
		for i := 0; i < 4; i++ {
			var ms [3]int
			k := 0
			for j := 0; j < 4; j++ {
				if j == i {
					continue
				}
				ms[k] = midPt(mesh.LocalEdge(i, j))
				k++
			}
			add(i, ms[0], ms[1], ms[2])
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
			l := m.Vert(pts[midPt(pr[0])]).Pos.Dist(m.Vert(pts[midPt(pr[1])]).Pos)
			if bestLen < 0 || l < bestLen {
				best, bestLen = d, l
			}
		}
		d0, d1 := midPt(diags[best][0]), midPt(diags[best][1])
		set(d0, d1, mesh.FreshEdge)
		eq := equators[best]
		for i := 0; i < 4; i++ {
			add(d0, d1, midPt(eq[i]), midPt(eq[(i+1)%4]))
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
	nFaces := m.FaceSlots()
	for fi := 0; fi < nFaces; fi++ {
		f := m.Face(mesh.FaceID(fi))
		if !f.Active() {
			continue
		}
		var split [3]bool
		cnt := 0
		for i, e := range f.E {
			if m.Edge(e).Bisected() {
				split[i] = true
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		v := f.V
		// Edge order within a face: E[0]=(V0,V1), E[1]=(V0,V2), E[2]=(V1,V2).
		midOf := func(i int) mesh.VertID { return m.Edge(f.E[i]).Mid }
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
