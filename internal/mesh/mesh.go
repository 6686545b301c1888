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
// range its consecutive creation gave it (see Element.Children). Vertices,
// edges, boundary faces, each element's corners and edges (its Tet), the
// bisection log and both list blocks live in pages that are allocated as
// the mesh grows and never move (see paged): Vert, Edge, Face, Tet and
// Bisection read a record, Verts, Edges and Faces scan a slab, and growing
// one copies nothing. Only the elements' refinement forest, 16 bytes a
// record, stays one contiguous slab, Elems, which Reserve sizes once per
// refinement round. So adaption allocates per page and per round, not per
// object, and the GC never scans the mesh.
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
	"iter"
	"math"
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

// Element is a tetrahedron's place in the refinement forest. Parent and
// Children record the refinement tree; Root is the initial-mesh ancestor,
// whose id is the dual-graph vertex the element contributes weight to (see
// Mesh.NumRoots). An element with children is inactive. Its corners and
// edges are its Tet, in a slab of their own (see Mesh.Tet), so a scan of
// the forest reads 16 bytes an element.
type Element struct {
	Parent ElemID
	Root   ElemID
	kids   ElemID // the sibling group [kids, kids+nKids) (see Children)
	Level  uint8
	nKids  uint8
	Dead   bool
}

// maxLevel is the deepest refinement level Element.Level holds.
const maxLevel = math.MaxUint8

// Tet is a tetrahedron's geometry: its 4 vertices and, canonically, its 6
// edges (see ElemEdgeVerts). Mesh.Tet reads element el's; the record sits
// at the element's id in a paged slab, so it moves only when Compact moves
// the element.
type Tet struct {
	V [4]VertID
	E [6]EdgeID
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
	Elems []Element

	// Renumbering is the other half of the bisection log (see Bisection):
	// old → new vertex id (-1 for a vertex dropped) over the compactions
	// since the last ResetLog, composed when there was more than one,
	// empty when there was none. Its domain is the vertex slab as the
	// first of them found it. A vertex-indexed field that has followed the
	// log since before then applies it before it reads the bisections,
	// whose entries Compact keeps in current ids.
	Renumbering []VertID

	verts paged[Vertex]
	edges paged[Edge]
	faces paged[BoundaryFace]
	// tets holds every element's corners and edges, at its id in Elems.
	tets paged[Tet]
	// bisections is the ordered log of edge bisections since the last
	// call to ResetLog, used for solution interpolation.
	bisections paged[Bisection]

	// The blocks the incidence lists live in (see push): every vertex's
	// edges in edgeBlk, every edge's elements in elemBlk.
	edgeBlk paged[EdgeID]
	elemBlk paged[ElemID]

	nRoots       int // initial elements, ids [0, nRoots) (see NumRoots)
	nActiveElems int
	nActiveEdges int
	nActiveFaces int

	// gen counts the changes to the element forest (see Generation).
	gen uint64

	// scratch and listStarts hold Compact's id maps and list marks
	// between calls.
	scratch    CompactMap
	listStarts []uint64
}

// Generation returns a count that changes whenever an element is added,
// changes its liveness or moves: every AddElement, AddElementEdges,
// DeactivateElement, ReactivateElement, KillElement and Compact bumps it.
// Two reads of one mesh at the same generation see the same element
// forest, so a view derived from it (the dual weights) need not be
// derived again.
func (m *Mesh) Generation() uint64 { return m.gen }

// New returns an empty mesh with room for nt elements.
func New(nt int) *Mesh {
	return &Mesh{Elems: make([]Element, 0, nt)}
}

// Reserve makes room for nt more elements, so that a refinement round
// whose growth is known up front regrows the forest slab at most once.
// The paged slabs, the Tets among them, need no reservation.
func (m *Mesh) Reserve(nt int) { m.Elems = slices.Grow(m.Elems, nt) }

// Vert, Edge, Face and Tet return the record of vertex v, edge e, boundary
// face f and element el's corners and edges. A record's page never moves,
// so the pointer stays valid while the mesh grows; Compact moves records
// between slots.
func (m *Mesh) Vert(v VertID) *Vertex       { return m.verts.at(int32(v)) }
func (m *Mesh) Edge(e EdgeID) *Edge         { return m.edges.at(int32(e)) }
func (m *Mesh) Face(f FaceID) *BoundaryFace { return m.faces.at(int32(f)) }
func (m *Mesh) Tet(el ElemID) *Tet          { return m.tets.at(int32(el)) }

// Verts, Edges and Faces range over the vertex, edge and boundary-face
// slots, live and dead, in id order with their records: a scan page by
// page, as fast as a slice's. A loop sees the slots there were when it
// began, and must not Compact.
func (m *Mesh) Verts() iter.Seq2[VertID, *Vertex]       { return all[VertID](&m.verts) }
func (m *Mesh) Edges() iter.Seq2[EdgeID, *Edge]         { return all[EdgeID](&m.edges) }
func (m *Mesh) Faces() iter.Seq2[FaceID, *BoundaryFace] { return all[FaceID](&m.faces) }

// VertSlots, EdgeSlots, FaceSlots and ElemSlots return the number of
// vertex, edge, boundary-face and element slots, live and dead: the ids
// run over [0, n).
func (m *Mesh) VertSlots() int { return m.verts.len() }
func (m *Mesh) EdgeSlots() int { return m.edges.len() }
func (m *Mesh) FaceSlots() int { return m.faces.len() }
func (m *Mesh) ElemSlots() int { return len(m.Elems) }

// NumBisections returns the length of the bisection log, and Bisection its
// entry i: the edge bisections since the last ResetLog, in creation order.
func (m *Mesh) NumBisections() int        { return m.bisections.len() }
func (m *Mesh) Bisection(i int) Bisection { return *m.bisections.at(int32(i)) }

// VertEdges returns vertex v's incidence list: the live edges meeting at
// it. The slice is a view of the mesh, valid until the mesh next changes;
// its capacity is its length, so appending to it copies.
func (m *Mesh) VertEdges(v VertID) []EdgeID {
	x := m.Vert(v)
	return m.edgeBlk.view(x.edgeOff, x.nEdges)
}

// EdgeElems returns edge e's incidence list: the active elements sharing
// it. Like VertEdges it is a view, valid until the mesh next changes.
func (m *Mesh) EdgeElems(e EdgeID) []ElemID {
	x := m.Edge(e)
	return m.elemBlk.view(x.elemOff, x.nElems)
}

// addVertEdge and addEdgeElem push onto an incidence list; delVertEdge and
// delEdgeElem remove from one, and panic when the entry is missing.
func (m *Mesh) addVertEdge(v VertID, e EdgeID) {
	x := m.Vert(v)
	push(&m.edgeBlk, &x.edgeOff, &x.nEdges, &x.edgeCls, e, vertEdgeCap)
}

func (m *Mesh) addEdgeElem(e EdgeID, el ElemID) {
	x := m.Edge(e)
	push(&m.elemBlk, &x.elemOff, &x.nElems, &x.elemCls, el, edgeElemCap)
}

func (m *Mesh) delVertEdge(v VertID, e EdgeID) {
	x := m.Vert(v)
	del(&m.edgeBlk, x.edgeOff, &x.nEdges, e)
}

func (m *Mesh) delEdgeElem(e EdgeID, el ElemID) {
	x := m.Edge(e)
	del(&m.elemBlk, x.elemOff, &x.nElems, el)
}

// AddVertex appends a vertex at p and returns its id.
func (m *Mesh) AddVertex(p geom.Vec3) VertID {
	m.verts.push(Vertex{Pos: p})
	return VertID(m.verts.len() - 1)
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
	x := m.Vert(a)
	if y := m.Vert(b); y.nEdges < x.nEdges {
		x = y
	}
	for _, e := range m.edgeBlk.view(x.edgeOff, x.nEdges) {
		if m.Edge(e).V == key {
			return e
		}
	}
	return InvalidEdge
}

// AddEdge returns the id of the edge connecting a and b, creating it if it
// does not exist. New edges are active and registered on both vertices'
// incidence lists.
func (m *Mesh) AddEdge(a, b VertID) EdgeID {
	if id := m.FindEdge(a, b); id != InvalidEdge {
		return id
	}
	return m.newEdge(a, b)
}

// newEdge creates the edge connecting a and b without looking for one:
// the caller knows there is none.
func (m *Mesh) newEdge(a, b VertID) EdgeID {
	if a == b {
		panic("mesh: degenerate edge")
	}
	id := EdgeID(m.edges.len())
	m.edges.push(Edge{
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

// FreshEdge, in the edges handed to AddElementEdges, stands for an edge
// the caller knows does not exist yet: it is created without a search.
const FreshEdge EdgeID = -2

// AddElement creates an active tetrahedron over the four vertices,
// creating any missing edges, and registers it on the incidence lists of
// its six edges. The vertex order is normalized so the signed volume is
// non-negative. root is the dual-graph vertex the element belongs to; pass
// InvalidElem to make the element its own root (initial-mesh elements).
// Roots come first: one added after a refinement child panics. A child
// joins its parent's sibling group, which consecutive calls build (see
// Element.Children). A level outside [0, 255] panics.
func (m *Mesh) AddElement(v0, v1, v2, v3 VertID, parent ElemID, root ElemID, level int32) ElemID {
	e := [6]EdgeID{InvalidEdge, InvalidEdge, InvalidEdge, InvalidEdge, InvalidEdge, InvalidEdge}
	return m.AddElementEdges([4]VertID{v0, v1, v2, v3}, &e, parent, root, level)
}

// AddElementEdges is AddElement for a caller that knows some of the
// element's edges: e[i] is the edge over local vertices ElemEdgeVerts[i]
// of v, InvalidEdge to find or create it, or FreshEdge to create it
// without a search. The edges are taken, found and created in the order
// AddElement would reach them, so ids come out the same. On return e holds
// all six, in the order of v.
func (m *Mesh) AddElementEdges(v [4]VertID, e *[6]EdgeID, parent ElemID, root ElemID, level int32) ElemID {
	if level < 0 || level > maxLevel {
		panic(fmt.Sprintf("mesh: refinement level %d outside [0, %d]", level, maxLevel))
	}
	// Stored local edge i is the caller's local edge perm[i].
	perm := [6]int{0, 1, 2, 3, 4, 5}
	if geom.TetVolume(m.Vert(v[0]).Pos, m.Vert(v[1]).Pos, m.Vert(v[2]).Pos, m.Vert(v[3]).Pos) < 0 {
		v[2], v[3] = v[3], v[2]
		perm = [6]int{0, 2, 1, 4, 3, 5}
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
	t := Tet{V: v}
	for i, lv := range ElemEdgeVerts {
		x := &e[perm[i]]
		switch *x {
		case InvalidEdge:
			*x = m.AddEdge(v[lv[0]], v[lv[1]])
		case FreshEdge:
			*x = m.newEdge(v[lv[0]], v[lv[1]])
		}
		t.E[i] = *x
		m.addEdgeElem(*x, id)
	}
	m.Elems = append(m.Elems, Element{Parent: parent, Root: root, Level: uint8(level)})
	m.tets.push(t)
	m.nActiveElems++
	m.gen++
	return id
}

// AddBoundaryFace creates an active boundary triangle over the three
// vertices (whose edges must already exist) with the given patch label.
func (m *Mesh) AddBoundaryFace(v0, v1, v2 VertID, patch int32) FaceID {
	id := FaceID(m.faces.len())
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
	m.faces.push(f)
	m.nActiveFaces++
	return id
}

// BisectEdge splits edge e at its midpoint, creating the midpoint vertex
// and two active child edges, and deactivating e. It is idempotent: if e
// is already bisected it returns the existing midpoint. The bisection is
// appended to the bisection log.
func (m *Mesh) BisectEdge(e EdgeID) VertID {
	ed := m.Edge(e)
	if ed.Bisected() {
		return ed.Mid
	}
	a, b := ed.V[0], ed.V[1]
	mid := m.AddVertex(m.Vert(a).Pos.Mid(m.Vert(b).Pos))
	// Both halves end at the new midpoint, so neither exists yet.
	c0 := m.newEdge(a, mid)
	c1 := m.newEdge(mid, b)
	ed.Child = [2]EdgeID{c0, c1}
	ed.Mid = mid
	m.Edge(c0).Parent = e
	m.Edge(c1).Parent = e
	m.nActiveEdges-- // e becomes inactive
	m.bisections.push(Bisection{Edge: e, A: a, B: b, Mid: mid})
	return mid
}

// DeactivateElement removes el from its edges' incidence lists. The caller
// is responsible for adding children (subdivision) or marking it dead
// (coarsening removal).
func (m *Mesh) DeactivateElement(el ElemID) {
	for _, e := range m.Tet(el).E {
		m.delEdgeElem(e, el)
	}
	m.nActiveElems--
	m.gen++
}

// ReactivateElement re-registers a previously subdivided element el on its
// edges' incidence lists and forgets its sibling group, which the caller
// has killed. Its six edges must be active again (or about to be re-marked
// for refinement by the caller).
func (m *Mesh) ReactivateElement(el ElemID) {
	t := &m.Elems[el]
	t.kids, t.nKids = 0, 0
	for _, e := range m.Tet(el).E {
		m.addEdgeElem(e, el)
	}
	m.nActiveElems++
	m.gen++
}

// KillElement marks a (deactivated) element dead so compaction drops it.
func (m *Mesh) KillElement(el ElemID) {
	m.Elems[el].Dead = true
	m.gen++
}

// ReactivateEdge makes a bisected edge active again, discarding its
// children (which must already be unused) and midpoint linkage.
func (m *Mesh) ReactivateEdge(e EdgeID) {
	ed := m.Edge(e)
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
	ed := m.Edge(e)
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
	x := m.Vert(v)
	if x.nEdges != 0 {
		panic("mesh: killing vertex with live edges")
	}
	x.Dead = true
}

// NumVerts returns the number of live vertices.
func (m *Mesh) NumVerts() int {
	n := 0
	for _, v := range m.Verts() {
		if !v.Dead {
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
	t := m.Tet(el)
	return geom.TetVolume(m.Vert(t.V[0]).Pos, m.Vert(t.V[1]).Pos, m.Vert(t.V[2]).Pos, m.Vert(t.V[3]).Pos)
}

// ElemCentroid returns the centroid of element el.
func (m *Mesh) ElemCentroid(el ElemID) geom.Vec3 {
	t := m.Tet(el)
	return geom.TetCentroid(m.Vert(t.V[0]).Pos, m.Vert(t.V[1]).Pos, m.Vert(t.V[2]).Pos, m.Vert(t.V[3]).Pos)
}

// EdgeMid returns the midpoint position of edge e.
func (m *Mesh) EdgeMid(e EdgeID) geom.Vec3 {
	ed := m.Edge(e)
	return m.Vert(ed.V[0]).Pos.Mid(m.Vert(ed.V[1]).Pos)
}

// EdgeLength returns the length of edge e.
func (m *Mesh) EdgeLength(e EdgeID) float64 {
	ed := m.Edge(e)
	return m.Vert(ed.V[0]).Pos.Dist(m.Vert(ed.V[1]).Pos)
}

// LocalEdgeOf returns the local index (0..5) of edge e within element el,
// or -1 if el does not reference e.
func (m *Mesh) LocalEdgeOf(el ElemID, e EdgeID) int {
	for i, x := range m.Tet(el).E {
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
	m.bisections.truncate(0)
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
