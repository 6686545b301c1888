// Package mesh implements the edge-based tetrahedral mesh data structures
// of the 3D_TAG adaption scheme (Biswas & Strawn; Biswas, Oliker & Sohn,
// SC'96).
//
// Elements and boundary faces are defined by their edges rather than only
// by their vertices, and two incidence lists are maintained — every vertex
// keeps the list of edges incident upon it, and every edge keeps the list
// of elements that share it. The paper notes these lists "eliminate
// extensive searches and are crucial to the efficiency of the overall
// adaption scheme". The vertex lists are also the edge lookup: FindEdge
// probes the shorter endpoint list, so no separate index is kept in step.
//
// The records hold no pointers. Each incidence list is an offset, a length
// and a capacity class into one per-mesh block per list kind (see push),
// read through VertEdges and EdgeElems, and a sibling group is the id
// range its consecutive creation gave it (see Element.Children). Reserve
// sizes the object slabs and the blocks once per refinement round, so
// adaption allocates per round, not per object, and the GC never scans
// the mesh.
//
// Refinement history is retained: when an element is subdivided or an edge
// is bisected, the parent object is deactivated but kept so that
// coarsening can reinstate it without reconstruction ("the parent edges
// and elements are retained at each refinement step"). What coarsening
// removes is only marked dead; Compact is the renumbering compaction the
// paper performs during coarsening, and the distributed coarsening pass
// (par.Dist.ParallelCoarsen) ends with it, so the slabs hold what is alive.
package mesh

import (
	"fmt"
	"slices"

	"plum/internal/geom"
)

// VertID identifies a vertex within a Mesh.
type VertID int32

// EdgeID identifies an edge within a Mesh.
type EdgeID int32

// ElemID identifies a tetrahedral element within a Mesh.
type ElemID int32

// FaceID identifies an external boundary face within a Mesh.
type FaceID int32

// Invalid marks an absent object reference (no parent, no child, …).
const (
	InvalidVert VertID = -1
	InvalidEdge EdgeID = -1
	InvalidElem ElemID = -1
	InvalidFace FaceID = -1
)

// ElemEdgeVerts maps the canonical local edge number of a tetrahedron to
// the pair of local vertex numbers it connects:
//
//	edge 0: (0,1)  edge 1: (0,2)  edge 2: (0,3)
//	edge 3: (1,2)  edge 4: (1,3)  edge 5: (2,3)
var ElemEdgeVerts = [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

// ElemFaceVerts maps the canonical local face number of a tetrahedron to
// its three local vertex numbers. Face f is opposite vertex (3-f) under
// this numbering:
//
//	face 0: (0,1,2)  face 1: (0,1,3)  face 2: (0,2,3)  face 3: (1,2,3)
var ElemFaceVerts = [4][3]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}

// ElemFaceEdges maps the canonical local face number to its three local
// edge numbers (consistent with ElemEdgeVerts and ElemFaceVerts).
var ElemFaceEdges = [4][3]int{{0, 1, 3}, {0, 2, 4}, {1, 2, 5}, {3, 4, 5}}

// LocalEdge returns the local edge number (0..5) connecting local vertices
// a and b of a tetrahedron, or -1 if a == b.
func LocalEdge(a, b int) int {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == 0 && b == 1:
		return 0
	case a == 0 && b == 2:
		return 1
	case a == 0 && b == 3:
		return 2
	case a == 1 && b == 2:
		return 3
	case a == 1 && b == 3:
		return 4
	case a == 2 && b == 3:
		return 5
	}
	return -1
}

// Vertex is a mesh vertex at Pos. Its incidence list, the live edges
// meeting at it, is Mesh.VertEdges.
type Vertex struct {
	Pos geom.Vec3
	// The incidence list in Mesh.edgeBlk (see push).
	edgeOff int32
	nEdges  uint16
	edgeCls uint8
	Dead    bool
}

// NumEdges returns the length of the vertex's incidence list.
func (v *Vertex) NumEdges() int { return int(v.nEdges) }

// Edge is a mesh edge connecting two vertices. It records the active
// elements sharing it (its incidence list, Mesh.EdgeElems), and — once
// bisected — the midpoint vertex and its two child edges. An edge with
// children is inactive: it no longer bounds any active element, but it is
// retained for coarsening.
type Edge struct {
	V      [2]VertID
	Parent EdgeID
	Child  [2]EdgeID // (V[0],Mid) and (Mid,V[1]); InvalidEdge if not bisected
	Mid    VertID    // midpoint vertex; InvalidVert if not bisected
	// The incidence list in Mesh.elemBlk (see push).
	elemOff int32
	nElems  uint16
	elemCls uint8
	Dead    bool
}

// NumElems returns the length of the edge's incidence list: the number of
// active elements sharing it.
func (e *Edge) NumElems() int { return int(e.nElems) }

// Bisected reports whether the edge has been split into two child edges.
func (e *Edge) Bisected() bool { return e.Child[0] != InvalidEdge }

// Element is a tetrahedron defined by 4 vertices and, canonically, by its
// 6 edges (see ElemEdgeVerts). Parent and Children record the refinement
// tree; Root is the initial-mesh ancestor, whose id is the dual-graph
// vertex the element contributes weight to (see Mesh.NumRoots). An element
// with children is inactive.
type Element struct {
	V      [4]VertID
	E      [6]EdgeID
	Parent ElemID
	Root   ElemID
	Level  int32
	kids   ElemID // the sibling group [kids, kids+nKids) (see Children)
	nKids  uint8
	Dead   bool
}

// Children returns the element's children, the ids [first, first+n); n is
// 0 for a leaf. AddElement creates a sibling group by consecutive calls
// and coarsening removes it whole, and Compact keeps survivors in order,
// so a group is always an id range.
func (t *Element) Children() (first ElemID, n int) { return t.kids, int(t.nKids) }

// Active reports whether the element is a live leaf of the refinement
// forest (participates in the computational mesh).
func (t *Element) Active() bool { return !t.Dead && t.nKids == 0 }

// BoundaryFace is a triangular face on the external boundary of the mesh.
// Patch labels the boundary patch it belongs to (inflow, wall, …).
type BoundaryFace struct {
	V      [3]VertID
	E      [3]EdgeID
	Patch  int32
	Parent FaceID
	kids   FaceID // the sibling group [kids, kids+nKids) (see Children)
	nKids  uint8
	Dead   bool
}

// Children returns the face's children, the ids [first, first+n), created
// by consecutive AddChildFace calls; n is 0 for a leaf.
func (f *BoundaryFace) Children() (first FaceID, n int) { return f.kids, int(f.nKids) }

// Active reports whether the boundary face is a live leaf.
func (f *BoundaryFace) Active() bool { return !f.Dead && f.nKids == 0 }

// Bisection records one edge bisection, in creation order, so that
// vertex-stored solution fields can be interpolated after adaption: the
// value at Mid is the average of the values at A and B (the paper linearly
// interpolates the solution vector at the mid-point).
type Bisection struct {
	Edge EdgeID
	A, B VertID
	Mid  VertID
}

// Mesh is an adaptive tetrahedral mesh with full refinement history.
// The zero value is not usable; call New.
type Mesh struct {
	Verts []Vertex
	Edges []Edge
	Elems []Element
	Faces []BoundaryFace

	// Bisections is the ordered log of edge bisections since the last
	// call to ResetLog, used for solution interpolation.
	Bisections []Bisection
	// Renumbering is the other half of the log: old → new vertex id (-1
	// for a vertex dropped) over the compactions since the last ResetLog,
	// composed when there was more than one, empty when there was none.
	// Its domain is the vertex slab as the first of them found it. A
	// vertex-indexed field that has followed the log since before then
	// applies it before it reads Bisections, whose entries Compact keeps
	// in current ids.
	Renumbering []VertID

	// The blocks the incidence lists live in (see push): every vertex's
	// edges in edgeBlk, every edge's elements in elemBlk.
	edgeBlk []EdgeID
	elemBlk []ElemID

	nRoots       int // initial elements, ids [0, nRoots) (see NumRoots)
	nActiveElems int
	nActiveEdges int
	nActiveFaces int

	// scratch holds Compact's id maps between calls.
	scratch CompactMap
}

// New returns an empty mesh with capacity hints for nv vertices, ne edges
// and nt elements, and for the first carves of their incidence lists (a
// list block that grows by copying costs a mesh generator a third of its
// time).
func New(nv, ne, nt int) *Mesh {
	return &Mesh{
		Verts:   make([]Vertex, 0, nv),
		Edges:   make([]Edge, 0, ne),
		Elems:   make([]Element, 0, nt),
		edgeBlk: make([]EdgeID, 0, nv*vertEdgeCap),
		elemBlk: make([]ElemID, 0, ne*edgeElemCap),
	}
}

// Reserve makes room for nv more vertices, ne more edges, nt more
// elements and nf more boundary faces, and for their incidence lists, so
// that a refinement round whose growth is known up front regrows each
// slab and block at most once. Every vertex of a round is an edge
// midpoint, so the bisection log grows with nv.
func (m *Mesh) Reserve(nv, ne, nt, nf int) {
	m.Verts = slices.Grow(m.Verts, nv)
	m.Edges = slices.Grow(m.Edges, ne)
	m.Elems = slices.Grow(m.Elems, nt)
	m.Faces = slices.Grow(m.Faces, nf)
	m.Bisections = slices.Grow(m.Bisections, nv)
	m.edgeBlk = slices.Grow(m.edgeBlk, nv*vertEdgeCap)
	m.elemBlk = slices.Grow(m.elemBlk, ne*edgeElemCap)
}

// VertEdges returns vertex v's incidence list: the live edges meeting at
// it. The slice is a view of the mesh, valid until the mesh next changes;
// its capacity is its length, so appending to it copies.
func (m *Mesh) VertEdges(v VertID) []EdgeID {
	x := &m.Verts[v]
	return view(m.edgeBlk, x.edgeOff, x.nEdges)
}

// EdgeElems returns edge e's incidence list: the active elements sharing
// it. Like VertEdges it is a view, valid until the mesh next changes.
func (m *Mesh) EdgeElems(e EdgeID) []ElemID {
	x := &m.Edges[e]
	return view(m.elemBlk, x.elemOff, x.nElems)
}

// addVertEdge and addEdgeElem push onto an incidence list; delVertEdge and
// delEdgeElem remove from one, and panic when the entry is missing.
func (m *Mesh) addVertEdge(v VertID, e EdgeID) {
	x := &m.Verts[v]
	push(&m.edgeBlk, &x.edgeOff, &x.nEdges, &x.edgeCls, e, vertEdgeCap)
}

func (m *Mesh) addEdgeElem(e EdgeID, el ElemID) {
	x := &m.Edges[e]
	push(&m.elemBlk, &x.elemOff, &x.nElems, &x.elemCls, el, edgeElemCap)
}

func (m *Mesh) delVertEdge(v VertID, e EdgeID) {
	x := &m.Verts[v]
	del(m.edgeBlk, x.edgeOff, &x.nEdges, e)
}

func (m *Mesh) delEdgeElem(e EdgeID, el ElemID) {
	x := &m.Edges[e]
	del(m.elemBlk, x.elemOff, &x.nElems, el)
}

// AddVertex appends a vertex at p and returns its id.
func (m *Mesh) AddVertex(p geom.Vec3) VertID {
	m.Verts = append(m.Verts, Vertex{Pos: p})
	return VertID(len(m.Verts) - 1)
}

func edgeKey(a, b VertID) [2]VertID {
	if a > b {
		a, b = b, a
	}
	return [2]VertID{a, b}
}

// FindEdge returns the live edge connecting a and b, or InvalidEdge if
// none exists. A vertex's incidence list holds exactly its live edges, so
// the probe walks the shorter of the two endpoint lists.
func (m *Mesh) FindEdge(a, b VertID) EdgeID {
	key := edgeKey(a, b)
	lst := m.VertEdges(a)
	if lb := m.VertEdges(b); len(lb) < len(lst) {
		lst = lb
	}
	for _, e := range lst {
		if m.Edges[e].V == key {
			return e
		}
	}
	return InvalidEdge
}

// AddEdge returns the id of the edge connecting a and b, creating it if it
// does not exist. New edges are active and registered on both vertices'
// incidence lists.
func (m *Mesh) AddEdge(a, b VertID) EdgeID {
	if a == b {
		panic("mesh: degenerate edge")
	}
	if id := m.FindEdge(a, b); id != InvalidEdge {
		return id
	}
	id := EdgeID(len(m.Edges))
	m.Edges = append(m.Edges, Edge{
		V:      edgeKey(a, b),
		Parent: InvalidEdge,
		Child:  [2]EdgeID{InvalidEdge, InvalidEdge},
		Mid:    InvalidVert,
	})
	m.addVertEdge(a, id)
	m.addVertEdge(b, id)
	m.nActiveEdges++
	return id
}

// AddElement creates an active tetrahedron over the four vertices,
// creating any missing edges, and registers it on the incidence lists of
// its six edges. The vertex order is normalized so the signed volume is
// non-negative. root is the dual-graph vertex the element belongs to; pass
// InvalidElem to make the element its own root (initial-mesh elements).
// Roots come first: one added after a refinement child panics. A child
// joins its parent's sibling group, which consecutive calls build (see
// Element.Children).
func (m *Mesh) AddElement(v0, v1, v2, v3 VertID, parent ElemID, root ElemID, level int32) ElemID {
	vol := geom.TetVolume(m.Verts[v0].Pos, m.Verts[v1].Pos, m.Verts[v2].Pos, m.Verts[v3].Pos)
	if vol < 0 {
		v2, v3 = v3, v2
	}
	id := ElemID(len(m.Elems))
	if root == InvalidElem {
		if m.nRoots != len(m.Elems) {
			panic("mesh: initial element added after a refinement child")
		}
		root = id
		m.nRoots++
	}
	if parent != InvalidElem {
		p := &m.Elems[parent]
		addChild(&p.kids, &p.nKids, id)
	}
	el := Element{
		V:      [4]VertID{v0, v1, v2, v3},
		Parent: parent,
		Root:   root,
		Level:  level,
	}
	for i, lv := range ElemEdgeVerts {
		e := m.AddEdge(el.V[lv[0]], el.V[lv[1]])
		el.E[i] = e
		m.addEdgeElem(e, id)
	}
	m.Elems = append(m.Elems, el)
	m.nActiveElems++
	return id
}

// AddBoundaryFace creates an active boundary triangle over the three
// vertices (whose edges must already exist) with the given patch label.
func (m *Mesh) AddBoundaryFace(v0, v1, v2 VertID, patch int32) FaceID {
	id := FaceID(len(m.Faces))
	f := BoundaryFace{
		V:      [3]VertID{v0, v1, v2},
		Patch:  patch,
		Parent: InvalidFace,
	}
	pairs := [3][2]VertID{{v0, v1}, {v0, v2}, {v1, v2}}
	for i, p := range pairs {
		e := m.FindEdge(p[0], p[1])
		if e == InvalidEdge {
			panic("mesh: boundary face over missing edge")
		}
		f.E[i] = e
	}
	m.Faces = append(m.Faces, f)
	m.nActiveFaces++
	return id
}

// BisectEdge splits edge e at its midpoint, creating the midpoint vertex
// and two active child edges, and deactivating e. It is idempotent: if e
// is already bisected it returns the existing midpoint. The bisection is
// appended to the Bisections log.
func (m *Mesh) BisectEdge(e EdgeID) VertID {
	ed := &m.Edges[e]
	if ed.Bisected() {
		return ed.Mid
	}
	a, b := ed.V[0], ed.V[1]
	mid := m.AddVertex(m.Verts[a].Pos.Mid(m.Verts[b].Pos))
	c0 := m.AddEdge(a, mid)
	c1 := m.AddEdge(mid, b)
	ed = &m.Edges[e] // AddEdge may have grown the slice
	ed.Child = [2]EdgeID{c0, c1}
	ed.Mid = mid
	m.Edges[c0].Parent = e
	m.Edges[c1].Parent = e
	m.nActiveEdges-- // e becomes inactive
	m.Bisections = append(m.Bisections, Bisection{Edge: e, A: a, B: b, Mid: mid})
	return mid
}

// HalfEdge returns the child of bisected edge e that has v as an endpoint.
func (m *Mesh) HalfEdge(e EdgeID, v VertID) EdgeID {
	ed := &m.Edges[e]
	if !ed.Bisected() {
		panic("mesh: HalfEdge on unbisected edge")
	}
	if v == ed.V[0] {
		return ed.Child[0]
	}
	if v == ed.V[1] {
		return ed.Child[1]
	}
	panic("mesh: HalfEdge vertex not an endpoint")
}

// DeactivateElement removes el from its edges' incidence lists. The caller
// is responsible for adding children (subdivision) or marking it dead
// (coarsening removal).
func (m *Mesh) DeactivateElement(el ElemID) {
	for _, e := range m.Elems[el].E {
		m.delEdgeElem(e, el)
	}
	m.nActiveElems--
}

// ReactivateElement re-registers a previously subdivided element el on its
// edges' incidence lists and forgets its sibling group, which the caller
// has killed. Its six edges must be active again (or about to be re-marked
// for refinement by the caller).
func (m *Mesh) ReactivateElement(el ElemID) {
	t := &m.Elems[el]
	t.kids, t.nKids = 0, 0
	for _, e := range t.E {
		m.addEdgeElem(e, el)
	}
	m.nActiveElems++
}

// KillElement marks a (deactivated) element dead so compaction drops it.
func (m *Mesh) KillElement(el ElemID) {
	m.Elems[el].Dead = true
}

// ReactivateEdge makes a bisected edge active again, discarding its
// children (which must already be unused) and midpoint linkage.
func (m *Mesh) ReactivateEdge(e EdgeID) {
	ed := &m.Edges[e]
	if !ed.Bisected() {
		return
	}
	ed.Child = [2]EdgeID{InvalidEdge, InvalidEdge}
	ed.Mid = InvalidVert
	m.nActiveEdges++
}

// KillEdge marks edge e dead and removes it from its endpoints' incidence
// lists. The edge must not bound any active element.
func (m *Mesh) KillEdge(e EdgeID) {
	ed := &m.Edges[e]
	if ed.nElems != 0 {
		panic("mesh: killing edge still in use")
	}
	if !ed.Dead && !ed.Bisected() {
		m.nActiveEdges--
	}
	ed.Dead = true
	for _, v := range ed.V {
		m.delVertEdge(v, e)
	}
}

// KillVertex marks vertex v dead. Its incidence list must be empty.
func (m *Mesh) KillVertex(v VertID) {
	if m.Verts[v].nEdges != 0 {
		panic("mesh: killing vertex with live edges")
	}
	m.Verts[v].Dead = true
}

// NumVerts returns the number of live vertices.
func (m *Mesh) NumVerts() int {
	n := 0
	for i := range m.Verts {
		if !m.Verts[i].Dead {
			n++
		}
	}
	return n
}

// NumRoots returns the number of initial elements. AddElement creates them
// before any child, adaption never kills one, and Compact keeps survivors
// in order, so they are elements [0, NumRoots) for the life of the mesh,
// each its own Root, and root r is dual vertex r.
func (m *Mesh) NumRoots() int { return m.nRoots }

// NumActiveElems returns the number of active (leaf) elements — the
// "Elements" column of the paper's Table 1.
func (m *Mesh) NumActiveElems() int { return m.nActiveElems }

// NumActiveEdges returns the number of active edges — the "Edges" column
// of the paper's Table 1.
func (m *Mesh) NumActiveEdges() int { return m.nActiveEdges }

// NumElemsTotal returns the total number of non-dead elements in all
// refinement trees (leaves plus retained parents); per element root this
// is the Wremap weight of the paper's dual graph.
func (m *Mesh) NumElemsTotal() int {
	n := 0
	for i := range m.Elems {
		if !m.Elems[i].Dead {
			n++
		}
	}
	return n
}

// ElemVolume returns the volume of element el.
func (m *Mesh) ElemVolume(el ElemID) float64 {
	t := &m.Elems[el]
	return geom.TetVolume(m.Verts[t.V[0]].Pos, m.Verts[t.V[1]].Pos, m.Verts[t.V[2]].Pos, m.Verts[t.V[3]].Pos)
}

// ElemCentroid returns the centroid of element el.
func (m *Mesh) ElemCentroid(el ElemID) geom.Vec3 {
	t := &m.Elems[el]
	return geom.TetCentroid(m.Verts[t.V[0]].Pos, m.Verts[t.V[1]].Pos, m.Verts[t.V[2]].Pos, m.Verts[t.V[3]].Pos)
}

// EdgeMid returns the midpoint position of edge e.
func (m *Mesh) EdgeMid(e EdgeID) geom.Vec3 {
	ed := &m.Edges[e]
	return m.Verts[ed.V[0]].Pos.Mid(m.Verts[ed.V[1]].Pos)
}

// EdgeLength returns the length of edge e.
func (m *Mesh) EdgeLength(e EdgeID) float64 {
	ed := &m.Edges[e]
	return m.Verts[ed.V[0]].Pos.Dist(m.Verts[ed.V[1]].Pos)
}

// LocalEdgeOf returns the local index (0..5) of edge e within element el,
// or -1 if el does not reference e.
func (m *Mesh) LocalEdgeOf(el ElemID, e EdgeID) int {
	for i, x := range m.Elems[el].E {
		if x == e {
			return i
		}
	}
	return -1
}

// TotalVolume returns the sum of active element volumes.
func (m *Mesh) TotalVolume() float64 {
	v := 0.0
	for i := range m.Elems {
		if m.Elems[i].Active() {
			v += m.ElemVolume(ElemID(i))
		}
	}
	return v
}

// ResetLog clears the bisection log and the pending vertex renumbering
// (call after a vertex-indexed field has consumed both).
func (m *Mesh) ResetLog() {
	m.Bisections = m.Bisections[:0]
	m.Renumbering = m.Renumbering[:0]
}

// Stats summarizes mesh size.
type Stats struct {
	Verts, ActiveEdges, ActiveElems, ActiveFaces int
	TotalElems                                   int
}

// Stats returns current size counters.
func (m *Mesh) Stats() Stats {
	return Stats{
		Verts:       m.NumVerts(),
		ActiveEdges: m.nActiveEdges,
		ActiveElems: m.nActiveElems,
		ActiveFaces: m.nActiveFaces,
		TotalElems:  m.NumElemsTotal(),
	}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("verts=%d edges=%d elems=%d faces=%d (tree total %d)",
		s.Verts, s.ActiveEdges, s.ActiveElems, s.ActiveFaces, s.TotalElems)
}
