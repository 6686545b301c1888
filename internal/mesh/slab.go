package mesh

import (
	"math"
	"slices"
)

// The incidence lists of mesh objects live in one block per list kind
// (Mesh.edgeBlk, Mesh.elemBlk), and a record names its list by an offset,
// a length and a capacity class instead of holding a slice header. The
// records therefore hold no pointers: the GC does not scan the slabs,
// Clone copies them whole, and Compact re-carves the lists from one block
// into the next. push and del are the only writers of a list, and the
// accessors (VertEdges, EdgeElems) read it.
//
// A list is entries [off, off+n) of a carve of capacity capOf(cls, first)
// at off, where first is the list kind's first-carve capacity. The three
// fields are stored flat in each record: a nested struct would pad them
// past the Dead flag.

// First-carve list capacities. The lattice-split meshes of meshgen have
// four or six elements around an edge (seven or eight on under 1 % of
// edges after refinement) and ten or fourteen edges at a vertex.
const (
	edgeElemCap = 6
	vertEdgeCap = 16
)

// maxListLen and maxChildren are the largest counts the length fields of
// a list and of a sibling group hold.
const (
	maxListLen  = math.MaxUint16
	maxChildren = math.MaxUint8
)

// capOf returns the capacity of a carve of class cls for a list kind first
// carved at first: nothing for class 0 (a list never carved), first
// doubled cls-1 times otherwise.
func capOf(cls uint8, first int) int {
	if cls == 0 {
		return 0
	}
	return first << (cls - 1)
}

// classOf returns the smallest class whose carve holds n entries.
func classOf(n, first int) uint8 {
	var cls uint8
	for capOf(cls, first) < n {
		cls++
	}
	return cls
}

// carve hands out n entries at the end of the block *blk and returns
// their offset. A full block grows by copying (amortised, as append
// grows), so offsets carved before stay valid.
func carve[T any](blk *[]T, n int) int32 {
	lo := len(*blk)
	*blk = slices.Grow(*blk, n)[:lo+n]
	return int32(lo)
}

// push appends x to the list (*off, *n, *cls) of the block *blk. A full
// list moves to a carve of the next class, twice its capacity (first
// entries for a list not carved yet), so the lists cost no allocation of
// their own; the carve it leaves stays unused until Compact. It panics
// when the length would overflow its field.
func push[T any](blk *[]T, off *int32, n *uint16, cls *uint8, x T, first int) {
	l := int32(*n)
	if l == maxListLen {
		panic("mesh: list length overflows its field")
	}
	if int(l) == capOf(*cls, first) {
		*cls++
		o := carve(blk, capOf(*cls, first))
		copy((*blk)[o:o+l], (*blk)[*off:*off+l])
		*off = o
	}
	(*blk)[*off+l] = x
	*n++
}

// del removes x from the list (off, *n) of blk, moving the list's last
// entry into its place. It panics when the list does not hold x: a caller
// removing what is not there has a broken mesh.
func del[T comparable](blk []T, off int32, n *uint16, x T) {
	l := blk[off : off+int32(*n)]
	i := slices.Index(l, x)
	if i < 0 {
		panic("mesh: removing an entry its list does not hold")
	}
	l[i] = l[len(l)-1]
	*n--
}

// view returns the list (off, n) of blk with its capacity clipped to its
// length, so an append to it copies and never writes into the block.
func view[T any](blk []T, off int32, n uint16) []T {
	return blk[off : off+int32(n) : off+int32(n)]
}

// recarve moves the entries of the list (off, n) of old that survive the
// renumbering ids, renumbered, into a carve of *blk of the class push
// would have grown them to, and returns the list's new fields; all zero
// when none survive.
func recarve[ID ~int32](blk *[]ID, old []ID, off int32, n uint16, ids []ID, first int) (int32, uint16, uint8) {
	l := view(old, off, n)
	live := 0
	for _, x := range l {
		if ids[x] >= 0 {
			live++
		}
	}
	if live == 0 {
		return 0, 0, 0
	}
	cls := classOf(live, first)
	o := carve(blk, capOf(cls, first))
	k := o
	for _, x := range l {
		if nx := ids[x]; nx >= 0 {
			(*blk)[k] = nx
			k++
		}
	}
	return o, uint16(live), cls
}

// addChild appends id to the sibling group (*first, *n) of its parent. A
// group is created by consecutive adds, so it is the id range
// [first, first+n); an id that does not extend it panics, as does a count
// that would overflow its field.
func addChild[ID ~int32](first *ID, n *uint8, id ID) {
	switch {
	case *n == 0:
		*first = id
	case *first+ID(*n) != id:
		panic("mesh: sibling group is not a range of consecutive ids")
	case *n == maxChildren:
		panic("mesh: child count overflows its field")
	}
	*n++
}
