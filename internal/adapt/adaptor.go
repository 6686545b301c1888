package adapt

import (
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

	// Per-pass scratch kept across passes: the propagation worklist and
	// its members (a set of elements), and the edges active boundary faces
	// hold against cleanup.
	queue     []mesh.ElemID
	queued    bitset
	protected bitset
}

// New returns an Adaptor for m with no edges marked.
func New(m *mesh.Mesh) *Adaptor {
	return &Adaptor{M: m, marks: make([]Mark, len(m.Edges))}
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

// clearMark resets marks equal to mk.
func (a *Adaptor) clearMark(mk Mark) {
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

// Compact forwards to the mesh's compaction and moves the marks to their
// edges' new ids, in place: survivors keep their order, so none moves up
// (paper: "objects are renumbered as a result of compaction and all
// internal and shared data are updated accordingly").
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
	return cm
}

// bitset is a set of slab indices, a bit each so that keeping one between
// passes costs the live heap next to nothing.
type bitset []uint64

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) add(i int32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) remove(i int32)   { b[i>>6] &^= 1 << (i & 63) }

// empty returns b as the empty set over n indices, reusing its storage.
func (b bitset) empty(n int) bitset {
	words := (n + 63) / 64
	b = slices.Grow(b[:0], words)[:words]
	clear(b)
	return b
}
