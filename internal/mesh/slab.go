package mesh

// The incidence and child lists of mesh objects are carved from per-mesh
// blocks instead of being grown on the heap one append at a time: a list
// costs no allocation of its own, a block is allocated once per slabBlock
// entries or once per Reserve.

// First-carve list capacities. The lattice-split meshes of meshgen have
// four or six elements around an edge (seven or eight on under 1 % of
// edges after refinement) and ten or fourteen edges at a vertex; a
// boundary face splits in two or four.
const (
	slabBlock    = 16 << 10
	edgeElemCap  = 6
	vertEdgeCap  = 16
	faceChildCap = 4
)

// reserve makes the block *s able to carve n more entries, starting a new
// block (and leaving the rest of the old one unused) when it cannot.
func reserve[T any](s *[]T, n int) {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(slabBlock, n))
	}
}

// carve hands out an empty list of capacity n from the block *s. The
// capacity is clipped to n, so an append past it reallocates on the heap
// and never writes into the list carved next.
func carve[T any](s *[]T, n int) []T {
	reserve(s, n)
	lo := len(*s)
	*s = (*s)[:lo+n]
	return (*s)[lo : lo : lo+n]
}

// push appends x to the list l of some mesh object. A full list moves to
// a carve of twice its capacity (first entries for a list not carved yet)
// instead of growing on the heap, so the lists cost one allocation per
// block, not per object; the carve it leaves stays unused.
func push[T any](s *[]T, l []T, x T, first int) []T {
	if len(l) == cap(l) {
		l = append(carve(s, max(2*cap(l), first)), l...)
	}
	return append(l, x)
}
