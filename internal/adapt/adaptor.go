package adapt

import (
	"math/bits"
	"slices"

	"plum/internal/mesh"
)

// Mark is the per-edge adaption target of the paper: each edge is targeted
// for subdivision, for removal, or left alone, based on an error indicator
// computed from the flow solution.
type Mark uint8

// Edge marks.
const (
	MarkNone Mark = iota
	MarkRefine
	MarkCoarsen
)

// Adaptor drives 3D_TAG mesh adaption on a Mesh: callers set edge marks
// (directly or through the strategy helpers), then invoke Refine and/or
// Coarsen.
type Adaptor struct {
	M *mesh.Mesh

	marks []Mark

	// What a refinement round can touch (see Touched): the edges whose
	// mark became MarkRefine since the refine marks were last cleared (an
	// edge repeats if it was remarked in between), and the carry list of
	// elements that may sit on an already-bisected edge.
	refined []mesh.EdgeID
	carry   []mesh.ElemID

	// The touched set as far as it has been folded: its members, the same
	// in ascending order, the prefixes of refined and carry folded in, and
	// the element slab length it was sized for (-1 once a mesh change has
	// made it stale).
	inTouched    bitset
	touched      []mesh.ElemID
	foldedEdges  int
	foldedCarry  int
	touchedSlots int

	// Per-pass scratch kept across passes: the propagation worklist and
	// its members (a set of elements), the edges active boundary faces
	// hold against cleanup, and a round's refine-marked edges as a set and
	// in ascending order.
	queue     []mesh.ElemID
	queued    bitset
	protected bitset
	edgeSet   bitset
	edges     []mesh.EdgeID
}

// New returns an Adaptor for m with no edges marked. One scan of the
// element slab puts every active element already on a bisected edge (a
// mesh handed over mid-refinement) on the carry list; from then on the
// adaptor tracks those itself.
func New(m *mesh.Mesh) *Adaptor {
	a := &Adaptor{M: m, marks: make([]Mark, len(m.Edges)), touchedSlots: -1}
	for ti := range m.Elems {
		if t := &m.Elems[ti]; t.Active() && a.bisectedPattern(t) != 0 {
			a.carry = append(a.carry, mesh.ElemID(ti))
		}
	}
	return a
}

// ensure sizes the mark array to the whole edge slab in one step the first
// time a mark lands beyond it (edges created since the last marking pass).
func (a *Adaptor) ensure(e mesh.EdgeID) {
	if old, n := len(a.marks), len(a.M.Edges); int(e) >= old {
		a.marks = slices.Grow(a.marks, n-old)[:n]
		clear(a.marks[old:])
	}
}

// SetMark sets the mark of edge e.
func (a *Adaptor) SetMark(e mesh.EdgeID, mk Mark) {
	a.ensure(e)
	if mk == MarkRefine && a.marks[e] != MarkRefine {
		a.refined = append(a.refined, e)
	}
	a.marks[e] = mk
}

// MarkOf returns the current mark of edge e.
func (a *Adaptor) MarkOf(e mesh.EdgeID) Mark {
	if int(e) >= len(a.marks) {
		return MarkNone
	}
	return a.marks[e]
}

// MarksSnapshot exposes the per-edge mark array (indexed by EdgeID) for
// read-only inspection by the distributed layer. Callers must not mutate
// it; use SetMark.
func (a *Adaptor) MarksSnapshot() []Mark { return a.marks }

// clearMark resets marks equal to mk: for MarkRefine only the listed
// edges, which empties the touched set, for the others the whole array.
func (a *Adaptor) clearMark(mk Mark) {
	if mk == MarkRefine {
		for _, e := range a.refined {
			if a.marks[e] == MarkRefine {
				a.marks[e] = MarkNone
			}
		}
		a.refined = a.refined[:0]
		a.touchedSlots = -1
		return
	}
	for i := range a.marks {
		if a.marks[i] == mk {
			a.marks[i] = MarkNone
		}
	}
}

// activeEdge reports whether e is a live, unbisected edge (markable).
func (a *Adaptor) activeEdge(e mesh.EdgeID) bool {
	ed := &a.M.Edges[e]
	return !ed.Dead && !ed.Bisected()
}

// Compact forwards to the mesh's compaction and moves the marks, the
// refine list and the carry list to their objects' new ids, in place:
// survivors keep their order, so none moves up (paper: "objects are
// renumbered as a result of compaction and all internal and shared data
// are updated accordingly").
func (a *Adaptor) Compact() mesh.CompactMap {
	cm := a.M.Compact()
	if cm.Edge == nil {
		return cm // nothing was dead
	}
	n := 0
	for old, mk := range a.marks {
		if ne := cm.Edge[old]; ne != mesh.InvalidEdge {
			a.marks[ne] = mk
			n++
		}
	}
	a.marks = a.marks[:n]
	a.refined = renumber(a.refined, cm.Edge)
	a.carry = renumber(a.carry, cm.Elem)
	a.touchedSlots = -1
	return cm
}

// renumber maps ids through a compaction map in place, dropping the dead.
func renumber[ID ~int32](ids, to []ID) []ID {
	n := 0
	for _, id := range ids {
		if to[id] >= 0 {
			ids[n] = to[id]
			n++
		}
	}
	return ids[:n]
}

// Touched returns, in ascending order, the active elements a refinement
// round can subdivide: those on an edge marked MarkRefine, and the carry
// list (parents coarsening reinstated, and a round's children that landed
// on an already-bisected edge). It is a superset of the active elements
// with a nonzero PatternOf, and what the refinement walks instead of the
// element slab. Marks set since the last call are folded in; the slice is
// valid until the next call or mesh change.
func (a *Adaptor) Touched() []mesh.ElemID {
	m := a.M
	if a.touchedSlots != len(m.Elems) {
		a.inTouched = a.inTouched.empty(len(m.Elems))
		a.touchedSlots = len(m.Elems)
		a.foldedEdges, a.foldedCarry = 0, 0
		a.touched = a.touched[:0]
	}
	if a.foldedEdges == len(a.refined) && a.foldedCarry == len(a.carry) {
		return a.touched
	}
	set := a.inTouched
	add := func(el mesh.ElemID) {
		if !set.has(int32(el)) && m.Elems[el].Active() {
			set.add(int32(el))
		}
	}
	for _, e := range a.refined[a.foldedEdges:] {
		if a.marks[e] == MarkRefine {
			for _, el := range m.EdgeElems(e) {
				add(el)
			}
		}
	}
	for _, el := range a.carry[a.foldedCarry:] {
		add(el)
	}
	a.foldedEdges, a.foldedCarry = len(a.refined), len(a.carry)
	a.touched = members(a.touched[:0], set)
	return a.touched
}

// refineEdges returns the edges marked MarkRefine in ascending order: the
// refine list without its repeats and remarks.
func (a *Adaptor) refineEdges() []mesh.EdgeID {
	a.edgeSet = a.edgeSet.empty(len(a.marks))
	for _, e := range a.refined {
		if a.marks[e] == MarkRefine {
			a.edgeSet.add(int32(e))
		}
	}
	a.edges = members(a.edges[:0], a.edgeSet)
	return a.edges
}

// bitset is a set of slab indices, a bit each so that keeping one between
// passes costs the live heap next to nothing.
type bitset []uint64

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) add(i int32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) remove(i int32)   { b[i>>6] &^= 1 << (i & 63) }

// members appends the elements of b to dst in ascending order.
func members[ID ~int32](dst []ID, b bitset) []ID {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, ID(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// empty returns b as the empty set over n indices, reusing its storage.
func (b bitset) empty(n int) bitset {
	words := (n + 63) / 64
	b = slices.Grow(b[:0], words)[:words]
	clear(b)
	return b
}
