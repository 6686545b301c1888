package mesh_test

import (
	"testing"
	"unsafe"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
)

// TestElementRecordSize pins the split of the element record: the forest
// slab Reserve regrows holds 16 bytes an element, and the corners and
// edges sit in the paged Tet slab, 40 bytes an element.
func TestElementRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(mesh.Element{}); got != 16 {
		t.Errorf("Element is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(mesh.Tet{}); got != 40 {
		t.Errorf("Tet is %d bytes, want 40", got)
	}
}

// TestTetStableAcrossGrowth takes every element's *Tet before a refinement
// round and reads them after it: the round's Reserve moves the forest
// slab, and every pointer still reads its element's corners and edges.
func TestTetStableAcrossGrowth(t *testing.T) {
	m := meshgen.Box(6, 6, 6, geom.Vec3{X: 1, Y: 1, Z: 1})
	n := m.ElemSlots()
	ptrs := make([]*mesh.Tet, n)
	vals := make([]mesh.Tet, n)
	for el := range mesh.ElemID(n) {
		ptrs[el], vals[el] = m.Tet(el), *m.Tet(el)
	}
	forest := unsafe.SliceData(m.Elems)

	a := adapt.New(m)
	a.MarkRandom(0.3, adapt.MarkRefine, 1)
	a.Refine()
	if unsafe.SliceData(m.Elems) == forest {
		t.Fatal("fixture: the refinement did not regrow the forest slab")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	for el := range mesh.ElemID(n) {
		if ptrs[el] != m.Tet(el) || *ptrs[el] != vals[el] {
			t.Fatalf("element %d: Tet at %p reads %v, was %v at %p", el, m.Tet(el), *ptrs[el], vals[el], ptrs[el])
		}
	}
}

// TestCompactAndCloneCarryTets coarsens a refined box and holds Compact
// and Clone to moving every surviving element's Tet with its forest
// record: against a clone taken before compaction, each survivor's record
// and Tet are its old ones renumbered through the CompactMap, and a clone
// of the compacted mesh reads the same as the mesh.
func TestCompactAndCloneCarryTets(t *testing.T) {
	m := meshgen.Box(4, 4, 4, geom.Vec3{X: 1, Y: 1, Z: 1})
	a := adapt.New(m)
	a.MarkRandom(0.2, adapt.MarkRefine, 2)
	a.Refine()
	a.MarkRandom(0.2, adapt.MarkRefine, 4)
	a.Refine()
	a.MarkRandom(0.3, adapt.MarkCoarsen, 3)
	a.Coarsen()
	before := m.Clone()
	for el := range mesh.ElemID(m.ElemSlots()) {
		if before.Elems[el] != m.Elems[el] || *before.Tet(el) != *m.Tet(el) {
			t.Fatalf("clone: element %d reads %+v %v, want %+v %v", el, before.Elems[el], *before.Tet(el), m.Elems[el], *m.Tet(el))
		}
	}

	cm := m.Compact()
	if !movesSurvivors(cm.Vert) || !movesSurvivors(cm.Edge) || !movesSurvivors(cm.Elem) {
		t.Fatal("fixture: the compaction moves no surviving vertex, edge or element")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	kept := 0
	for old := range mesh.ElemID(before.ElemSlots()) {
		el := cm.Elem[old]
		if el == mesh.InvalidElem {
			continue
		}
		kept++
		ot, ow := before.Elems[old], before.Tet(old)
		want := mesh.Tet{}
		for j, v := range ow.V {
			want.V[j] = cm.Vert[v]
		}
		for j, e := range ow.E {
			want.E[j] = cm.Edge[e]
		}
		if got := *m.Tet(el); got != want {
			t.Fatalf("element %d (was %d): Tet %v, want %v", el, old, got, want)
		}
		nt := m.Elems[el]
		parent := mesh.InvalidElem
		if ot.Parent != mesh.InvalidElem {
			parent = cm.Elem[ot.Parent]
		}
		of, on := ot.Children()
		nf, nn := nt.Children()
		if nt.Parent != parent || nt.Root != cm.Elem[ot.Root] || nt.Level != ot.Level ||
			nn != on || on != 0 && nf != cm.Elem[of] || nt.Active() != ot.Active() {
			t.Fatalf("element %d (was %d): record %+v, was %+v", el, old, nt, ot)
		}
	}
	if kept != m.ElemSlots() {
		t.Fatalf("%d survivors in %d slots", kept, m.ElemSlots())
	}

	c := m.Clone()
	for el := range mesh.ElemID(m.ElemSlots()) {
		if c.Elems[el] != m.Elems[el] || *c.Tet(el) != *m.Tet(el) {
			t.Fatalf("clone of the compacted mesh: element %d differs", el)
		}
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// movesSurvivors reports whether the id map gives some survivor a new id.
func movesSurvivors[ID ~int32](ids []ID) bool {
	for old, id := range ids {
		if id >= 0 && int(id) != old {
			return true
		}
	}
	return false
}
