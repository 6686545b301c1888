package mesh

import (
	"iter"
	"math/bits"
	"unsafe"
)

// pageBytes is the size of one page of a paged slab. Growth allocates a
// page at a time, so it trades allocations per refinement round against
// the unused tail of each slab's last page.
const pageBytes = 1 << 19

// paged is a slab kept in fixed-size pages that are allocated on demand
// and never move: appending to a full slab allocates one page and copies
// nothing, so a record's address stays valid while the slab grows, and an
// index is an id exactly as in a plain slice. A page holds the largest
// power of two of records that fits pageBytes, so an index splits into
// page and slot by a shift and a mask.
//
// pages[:len(pages)] are in use, every one full but the last, whose length
// is its count. Shrinking keeps the pages it releases in the table's
// capacity, and growing takes them back before it allocates. The zero
// value is an empty slab.
type paged[T any] struct {
	pages [][]T
	n     int32
}

// pageShift returns log2 of the page length of a slab of T. The compiler
// instantiates paged per record layout and folds this to a constant there,
// so an index splits without a variable shift.
func pageShift[T any]() uint {
	var x T
	return uint(bits.Len(uint(pageBytes/unsafe.Sizeof(x)))) - 1
}

// len returns the number of slots in use.
func (p *paged[T]) len() int { return int(p.n) }

// at returns the slot at index i. It panics when i lies outside the pages
// in use, as a slice index would past its end.
func (p *paged[T]) at(i int32) *T {
	s := pageShift[T]()
	return &p.pages[i>>s][i&(1<<s-1)]
}

// all ranges over the slots of p in index order, page by page, with their
// ids. It visits the slots in use when the loop starts: records the loop
// adds are not visited, and it must not shrink the slab.
func all[ID ~int32, T any](p *paged[T]) iter.Seq2[ID, *T] {
	return func(yield func(ID, *T) bool) {
		s, n := pageShift[T](), p.n
		for k := 0; int32(k)<<s < n; k++ {
			base := int32(k) << s
			pg := p.pages[k]
			pg = pg[:min(int32(len(pg)), n-base)]
			for j := range pg {
				if !yield(ID(base+int32(j)), &pg[j]) {
					return
				}
			}
		}
	}
}

// nextPage makes the page after the last in use the last, empty.
func (p *paged[T]) nextPage() {
	k := len(p.pages)
	if k < cap(p.pages) {
		p.pages = p.pages[:k+1]
	} else {
		p.pages = append(p.pages, nil)
	}
	if p.pages[k] == nil {
		p.pages[k] = make([]T, 0, 1<<pageShift[T]())
	}
	p.pages[k] = p.pages[k][:0]
}

// push appends x.
func (p *paged[T]) push(x T) {
	if p.n&(1<<pageShift[T]()-1) == 0 {
		p.nextPage()
	}
	last := &p.pages[len(p.pages)-1]
	*last = append(*last, x)
	p.n++
}

// carve appends k consecutive slots that lie in one page and returns the
// index of the first. When the last page has fewer than k slots left, they
// stay unused and the carve starts the next page. k must not exceed a page.
func (p *paged[T]) carve(k int) int32 {
	if len(p.pages) == 0 {
		p.nextPage()
	}
	last := &p.pages[len(p.pages)-1]
	if room := cap(*last) - len(*last); room < k {
		*last = (*last)[:cap(*last)]
		p.n += int32(room)
		p.nextPage()
		last = &p.pages[len(p.pages)-1]
	}
	o := p.n
	*last = (*last)[:len(*last)+k]
	p.n += int32(k)
	return o
}

// view returns the k slots from off, which must lie in one page, with the
// capacity clipped to the length, so an append to it copies; nil for none.
func (p *paged[T]) view(off int32, k uint16) []T {
	if k == 0 {
		return nil
	}
	s := pageShift[T]()
	pg, j := p.pages[off>>s], off&(1<<s-1)
	return pg[j : j+int32(k) : j+int32(k)]
}

// truncate shrinks the slab to its first n slots, keeping the pages it
// releases for reuse.
func (p *paged[T]) truncate(n int32) {
	s, k := pageShift[T](), 0
	if n > 0 {
		k = int((n-1)>>s) + 1
	}
	p.pages = p.pages[:k]
	if k > 0 {
		p.pages[k-1] = p.pages[k-1][:n-int32(k-1)<<s]
	}
	p.n = n
}

// clone returns a copy of the slots in use: one allocation for the page
// table and one per page, none for an empty slab. Released pages are not
// copied.
func (p *paged[T]) clone() paged[T] {
	c := paged[T]{n: p.n}
	if len(p.pages) == 0 {
		return c
	}
	c.pages = make([][]T, len(p.pages))
	for k, pg := range p.pages {
		c.pages[k] = append(make([]T, 0, 1<<pageShift[T]()), pg...)
	}
	return c
}
