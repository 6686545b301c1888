package mesh

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// The incidence lists of mesh objects live in one paged block per list
// kind (Mesh.edgeBlk, Mesh.elemBlk), and a record names its list by an
// offset, a length and a capacity class instead of holding a slice header.
// The records therefore hold no pointers: the GC does not scan the slabs,
// Clone copies them page by page, and Compact re-carves the lists in
// place (compactLists). push and del are the only writers of a list, and
// the accessors (VertEdges, EdgeElems) read it.
//
// A list is entries [off, off+n) of a carve of capacity capOf(cls, first)
// at off, where first is the list kind's first-carve capacity. A carve
// never straddles a page, so a list is one contiguous run. The three
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
// a list and of a sibling group hold; maxCarve, the largest carve, holds a
// list of maxListLen entries.
const (
	maxListLen  = math.MaxUint16
	maxChildren = math.MaxUint8
	maxCarve    = maxListLen + 1
)

// A page of list entries holds the largest carve.
const _ = uint(pageBytes/unsafe.Sizeof(EdgeID(0)) - maxCarve)

// capOf returns the capacity of a carve of class cls for a list kind first
// carved at first: nothing for class 0 (a list never carved), first
// doubled cls-1 times otherwise, up to maxCarve.
func capOf(cls uint8, first int) int {
	if cls == 0 {
		return 0
	}
	return min(first<<(cls-1), maxCarve)
}

// classOf returns the smallest class whose carve holds n entries.
func classOf(n, first int) uint8 {
	var cls uint8
	for capOf(cls, first) < n {
		cls++
	}
	return cls
}

// push appends x to the list (*off, *n, *cls) of the block blk. A full
// list moves to a carve of the next class, twice its capacity (first
// entries for a list not carved yet), so the lists cost no allocation of
// their own; the carve it leaves stays unused until Compact. It panics
// when the length would overflow its field.
func push[T any](blk *paged[T], off *int32, n *uint16, cls *uint8, x T, first int) {
	l := *n
	if l == maxListLen {
		panic("mesh: list length overflows its field")
	}
	if int(l) == capOf(*cls, first) {
		*cls++
		o := blk.carve(capOf(*cls, first))
		copy(blk.view(o, l), blk.view(*off, l))
		*off = o
	}
	*blk.at(*off + int32(l)) = x
	*n++
}

// del removes x from the list (off, *n) of blk, moving the list's last
// entry into its place. It panics when the list does not hold x: a caller
// removing what is not there has a broken mesh.
func del[T comparable](blk *paged[T], off int32, n *uint16, x T) {
	l := blk.view(off, *n)
	i := slices.Index(l, x)
	if i < 0 {
		panic("mesh: removing an entry its list does not hold")
	}
	l[i] = l[len(l)-1]
	*n--
}

// compactLists re-carves in place the lists the block blk holds for n
// records, record i's list fields being list(i): each keeps the entries
// that survive the renumbering ids, renumbered, in a carve of the class
// push would have grown it to, and a list with none left is emptied. The
// lists move in block order, each to the next carve of the new layout, so
// none moves up: a new carve is no larger than the old one, and one that
// does not fit the rest of its page starts the next page, where the old
// carve then starts too. starts is scratch: a bit per slot, set where a
// list starts.
func compactLists[ID ~int32](blk *paged[ID], starts *[]uint64, n int, list func(int32) (*int32, *uint16, *uint8), ids []ID, first int) {
	// Mark every list's start and put its record there; the entry it
	// displaces waits in the record's offset field.
	marks := resize(*starts, (blk.len()+63)/64)
	clear(marks)
	*starts = marks
	for i := range int32(n) {
		off, cnt, cls := list(i)
		if *cnt == 0 {
			*off, *cls = 0, 0
			continue
		}
		marks[*off/64] |= 1 << (*off % 64)
		slot := blk.at(*off)
		*off, *slot = int32(*slot), ID(i)
	}

	page := int32(1) << pageShift[ID]()
	var w int32 // the new layout's length
	for k, word := range marks {
		for ; word != 0; word &= word - 1 {
			o := int32(k*64 + bits.TrailingZeros64(word))
			off, cnt, cls := list(int32(*blk.at(o)))
			l := blk.view(o, *cnt)
			l[0] = ID(*off)
			live := 0 // the survivors, renumbered, first in place
			for _, x := range l {
				if nx := ids[x]; nx >= 0 {
					l[live] = nx
					live++
				}
			}
			if live == 0 {
				*off, *cnt, *cls = 0, 0, 0
				continue
			}
			*cls = classOf(live, first)
			c := int32(capOf(*cls, first))
			if w%page+c > page {
				w += page - w%page
			}
			copy(blk.view(w, uint16(live)), l[:live])
			*off, *cnt = w, uint16(live)
			w += c
		}
	}
	blk.truncate(w)
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
