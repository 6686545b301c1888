package partition

import (
	"math/bits"

	"plum/internal/dual"
)

// Boundary refinement: the classic serial Fiduccia–Mattheyses cascading
// sweep, walking only the boundary, which it carries as moves cascade.
// Multilevel runs it at every level of its chain, with the boundary
// carried down the chain, and after a rebalance from the owners, over the
// vertices the rebalance moved. The curve methods run nothing after their
// exact minimum-bottleneck cut.
//
// A move never pushes a part past the balance cap (balanceCap, 1.03·avg,
// unless the caller gives its own) and never empties a part, and a final
// overflow pass forces load out of parts the gain phase could not rescue.
// The work is memory-bound op accounting.

// words is the length of a vertex bitset over n vertices: bit v&63 of
// word v>>6 stands for vertex v.
func words(n int) int { return (n + 63) >> 6 }

// allVertices sets the bits of vertices [0, n) in bnd, which holds
// words(n) words, and returns its op count: one per word.
func allVertices(bnd []uint64, n int) int64 {
	for i := range bnd {
		bnd[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		bnd[len(bnd)-1] = 1<<r - 1
	}
	return int64(len(bnd))
}

// balanceCap returns FM's 3% tolerance cap on per-part weight: no
// refinement move may push a part past it.
func balanceCap(w []int64) int64 {
	var total int64
	for _, x := range w {
		total += x
	}
	avg := float64(total) / float64(len(w))
	maxW := int64(avg * 1.03)
	if maxW < 1 {
		maxW = 1
	}
	return maxW
}

// fm is the scratch of boundary-driven FM refinement into k parts. It is
// sized once, for the largest graph it refines, and reused by every
// refine: multilevel refines every level of its chain on one fm.
type fm struct {
	ext  []int32 // v's adjacency entries in other parts; 0 off the boundary
	w    []int64 // part weights
	cnt  []int   // part populations
	conn []int32 // proposeMove's per-part tally
}

// newFM returns FM scratch for k parts on graphs of at most len(ext)
// vertices. ext is borrowed: every refine overwrites it.
func newFM(k int, ext []int32) *fm {
	return &fm{ext: ext, w: make([]int64, k), cnt: make([]int, k), conn: make([]int32, k)}
}

// refine improves asg, a k-way assignment of g, in place: boundary
// vertices greedily move to adjacent parts when the move reduces the edge
// cut without violating the balance tolerance, or when it strictly
// improves balance at equal cut. Moves apply immediately and cascade
// within a pass, so the work is inherently serial. passes bounds the
// number of passes.
//
// Only the boundary (the vertices with an edge into another part) can
// move, so only the boundary is walked. bnd, words(g.N) words, holds on
// entry a candidate set, any superset of asg's boundary, and on return
// exactly the boundary of the refined asg. refine keeps every vertex's
// external degree and the boundary bitset current as moves cascade; a
// candidate's external degree is counted on its first visit, and an
// interior one leaves the set there. Each pass visits the set in
// ascending order, re-reading each word as it scans it, so a vertex that
// joins the boundary ahead of the scan is visited in the same pass: the
// moves are exactly those of a sweep over every vertex that skips the
// interior ones.
//
// A candidate set that leaves out boundary vertices restricts the walk:
// a left-out vertex counts as interior, joins the set only if a
// neighbour's move leaves its part, and its external degree is then
// undercounted. Every move still obeys the move rule and the cap, so asg
// stays a valid assignment, but bnd on return is only part of the
// boundary. Rebalancing from the owners refines this way, over the
// vertices it moved and their neighbours.
//
// The returned op count charges what runs: g.N + k for the part tallies,
// the external-degree reset and the balance cap; 1 + deg for each vertex
// a pass visits; deg for each move's neighbour updates; one per bitset
// word a pass scans; and overflowPass's own count. With passes ≤ 0 one
// pass still visits the candidates, to count them, and moves nothing.
func (f *fm) refine(g *dual.Graph, asg []int32, passes int, bnd []uint64) int64 {
	return f.refineCap(g, asg, passes, bnd, 0)
}

// refineCap is refine under the balance cap maxW in place of balanceCap
// of the part weights; maxW ≤ 0 means balanceCap.
func (f *fm) refineCap(g *dual.Graph, asg []int32, passes int, bnd []uint64, maxW int64) int64 {
	k := len(f.w)
	if k <= 1 || g.N == 0 {
		return 0
	}
	w, cnt, ext := f.w, f.cnt, f.ext[:g.N]
	clear(w)
	clear(cnt)
	for v, p := range asg {
		w[p] += g.Wcomp[v]
		cnt[p]++
		ext[v] = -int32(bnd[v>>6] >> (v & 63) & 1) // -1: a candidate not yet visited
	}
	if maxW <= 0 {
		maxW = balanceCap(w)
	}
	ops := int64(g.N + k)

	for pass := 0; pass < max(passes, 1); pass++ {
		moved := 0
		for i := range bnd {
			ops++
			for ahead := ^uint64(0); bnd[i]&ahead != 0; {
				bit := bits.TrailingZeros64(bnd[i] & ahead)
				ahead = ^uint64(0) << bit << 1
				v := int32(i<<6 + bit)
				nbrs := g.Nbrs(v)
				ops += 1 + int64(len(nbrs))
				a := asg[v]
				if ext[v] < 0 {
					var e int32
					for _, u := range nbrs {
						if asg[u] != a {
							e++
						}
					}
					if ext[v] = e; e == 0 {
						bnd[i] &^= 1 << bit
						continue
					}
				}
				if pass >= passes || cnt[a] <= 1 {
					continue
				}
				if b := proposeMove(g, asg, v, w, maxW, f.conn); b != a {
					ops += f.move(g, asg, bnd, v, a, b)
					moved++
				}
			}
		}
		if moved == 0 {
			break
		}
	}
	return ops + f.overflowPass(g, asg, bnd, maxW)
}

// move reassigns v from part a to part b and carries the part tallies,
// the external degrees and the boundary with it. It returns its op count,
// deg(v): one scan of v's neighbours updates theirs and recounts v's own.
// A candidate not yet visited is left to count its own on its visit.
func (f *fm) move(g *dual.Graph, asg []int32, bnd []uint64, v, a, b int32) int64 {
	asg[v] = b
	f.w[a] -= g.Wcomp[v]
	f.w[b] += g.Wcomp[v]
	f.cnt[a]--
	f.cnt[b]++
	nbrs := g.Nbrs(v)
	var e int32
	for _, u := range nbrs {
		p := asg[u]
		if p != b {
			e++
		}
		switch {
		case f.ext[u] < 0:
		case p == a:
			if f.ext[u] == 0 {
				bnd[u>>6] |= 1 << (u & 63)
			}
			f.ext[u]++
		case p == b:
			if f.ext[u]--; f.ext[u] == 0 {
				bnd[u>>6] &^= 1 << (u & 63)
			}
		}
	}
	f.ext[v] = e
	if e == 0 {
		bnd[v>>6] &^= 1 << (v & 63)
	}
	return int64(len(nbrs))
}

// proposeMove is FM's move rule: v's best positive-gain move that fits
// the balance cap under the live part weights w, or a zero-gain move into
// a strictly lighter part, or v's own part when neither exists. conn is a
// k-sized scratch owned by the caller, all zero on entry and on return:
// only the entries of v's neighbours' parts are touched and reset, so a
// call costs O(deg(v)), not O(k).
func proposeMove(g *dual.Graph, asg []int32, v int32, w []int64, maxW int64, conn []int32) int32 {
	a := asg[v]
	adj := g.Nbrs(v)
	for _, u := range adj {
		conn[asg[u]]++
	}
	wv := g.Wcomp[v]
	bestPart := a
	bestGain := int32(0)
	for _, u := range adj {
		b := asg[u]
		if b == a || b == bestPart {
			continue
		}
		gain := conn[b] - conn[a]
		fits := w[b]+wv <= maxW
		better := gain > bestGain && fits
		balances := gain == bestGain && bestPart == a && w[b]+wv < w[a]
		if better || (balances && fits) {
			bestPart = b
			bestGain = gain
		}
	}
	for _, u := range adj {
		conn[asg[u]] = 0
	}
	return bestPart
}

// overflowPass is FM's last-resort rebalancer: gain-driven moves alone
// cannot rescue a badly imbalanced input, so force vertices out of
// overloaded parts into their lightest neighbouring part, accepting cut
// damage, until every part fits maxW or no vertex can leave. Each force
// is a move. Purely serial; returns its op count: k per round for
// finding the heaviest overloaded part, one per vertex scanned plus deg
// for each vertex of that part whose neighbours it reads, and what the
// moves report.
func (f *fm) overflowPass(g *dual.Graph, asg []int32, bnd []uint64, maxW int64) int64 {
	w, cnt, k := f.w, f.cnt, len(f.w)
	var ops int64
	for iter := 0; iter < 2*k; iter++ {
		ops += int64(k)
		over := -1
		for p := 0; p < k; p++ {
			if w[p] > maxW && (over < 0 || w[p] > w[over]) {
				over = p
			}
		}
		if over < 0 {
			return ops
		}
		moved := false
		for v := int32(0); int(v) < g.N && w[over] > maxW; v++ {
			ops++
			if asg[v] != int32(over) || cnt[over] <= 1 {
				continue
			}
			best := int32(-1)
			nbrs := g.Nbrs(v)
			ops += int64(len(nbrs))
			for _, u := range nbrs {
				b := asg[u]
				if b == int32(over) {
					continue
				}
				if best < 0 || w[b] < w[best] {
					best = b
				}
			}
			if best >= 0 && w[best]+g.Wcomp[v] <= maxW {
				ops += f.move(g, asg, bnd, v, int32(over), best)
				moved = true
			}
		}
		if !moved {
			return ops
		}
	}
	return ops
}
