package partition

import (
	"math/rand"

	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/refine"
)

// multilevelCounted partitions by the Chaco-style multilevel scheme: the
// dual graph is coarsened by repeated edge matchings until it is small,
// the coarse graph is partitioned spectrally, and the partition is
// projected back up with boundary refinement at every level. The
// refinement is the classic cascading FM sweep (refine.FMRefine), charged
// as serial memory-bound work: the scheme is serial end to end, and
// opt.Workers plays no part. It counts the matching and edge-collapse
// work of every coarsening level, the spectral solve on the coarsest
// graph, and the projection plus boundary refinement of every
// uncoarsening level. opt.Seed offsets the per-level matching RNG; seed 1
// reproduces the historical level-index seeding.
//
// The chain runs on one coarsener, sized at level 0 and reused by every
// level, and the projection alternates between two assignment buffers, so
// the call allocates little beyond the coarse graphs and maps it keeps.
func multilevelCounted(g *dual.Graph, k int, opt Options) (Assignment, machine.Ops) {
	var ops machine.Ops
	levels, cops := coarsenChain(g, k, opt.Seed)
	ops.AddSerial(cops)

	// Initial partition of the coarsest graph.
	cur := levels[len(levels)-1].g
	asg, sops := spectralCounted(cur, k)
	ops.Add(sops)
	ops.AddSerialMem(refine.FMRefine(cur, asg, k, 4))
	if len(levels) == 1 {
		return asg, ops
	}

	// Uncoarsen with refinement. Level li projects onto level li-1 through
	// bufs[li%2], so the finest projection (li = 1) lands in the g.N-long
	// buffer that is returned.
	bufs := [2]Assignment{make(Assignment, levels[1].g.N), make(Assignment, g.N)}
	for li := len(levels) - 1; li >= 1; li-- {
		fine := levels[li-1].g
		cmap := levels[li].map_
		fineAsg := bufs[li%2][:fine.N]
		for v := range fineAsg {
			fineAsg[v] = asg[cmap[v]]
		}
		asg = fineAsg
		ops.AddSerial(int64(fine.N))
		ops.AddSerialMem(refine.FMRefine(fine, asg, k, 2))
	}
	return asg, ops
}

// level is one graph of the coarsening chain.
type level struct {
	g    *dual.Graph
	map_ []int32 // fine vertex -> coarse vertex (nil for the finest)
}

// coarsenChain contracts g until it has at most target = max(200, 4k)
// vertices or a matching stalls (keeps ≥ 90 % of the vertices), returning
// the chain from g (levels[0]) to the coarsest graph and the op count of
// every contraction, the stalled one included. Level l is matched with
// seed seed-1+l; seed 1 reproduces the historical level-index seeding.
//
// Every level matches under one weight cap, 1.5·ΣWcomp/target in integer
// arithmetic (METIS's maxvwgt rule, Karypis & Kumar): a pair merges only
// if its merged weight fits, so a coarse vertex with two or more members
// weighs at most 1.5 times the average vertex of a target-sized graph,
// and a part (the weight of four such vertices or more) is built from
// several coarse vertices. Without the cap, heavy refined roots pile into
// coarse vertices heavier than a whole part, which no later level can
// split. A fine vertex already above the cap stays single.
func coarsenChain(g *dual.Graph, k int, seed int64) ([]level, int64) {
	target := max(200, 4*k)
	levels := []level{{g: g}}
	if g.N <= target {
		return levels, 0
	}
	wcap := 3 * g.TotalWcomp() / int64(2*target)
	var ops int64
	c := newCoarsener(g)
	for cur := g; cur.N > target; {
		cg, cmap, cops := c.coarsen(cur, seed-1+int64(len(levels)), wcap)
		ops += cops
		if cg.N >= cur.N*9/10 {
			break // matching stalled; stop coarsening
		}
		levels = append(levels, level{g: cg, map_: cmap})
		cur = cg
	}
	return levels, ops
}

// coarsener is the scratch of one multilevel call's coarsening chain,
// sized at the finest graph: every coarse graph has fewer vertices and no
// more adjacency entries than the graph it contracts.
type coarsener struct {
	rng   *rand.Rand
	order []int32    // the matching's visit order
	match [][2]int32 // coarse vertex -> its fine members
	mark  []int32    // row dedup marker, then the transpose's write cursor
	nbr   []int32    // coarse rows in first-seen order
}

func newCoarsener(g *dual.Graph) *coarsener {
	return &coarsener{
		rng:   rand.New(rand.NewSource(1)),
		order: make([]int32, g.N),
		match: make([][2]int32, 0, g.N),
		mark:  make([]int32, g.N),
		nbr:   make([]int32, 0, len(g.Adjncy)),
	}
}

// drawPerm reseeds r and fills order with the permutation
// r.Perm(len(order)) would return, drawn in place with Perm's own
// Intn(i+1) swaps, so the matching order — and with it every partition —
// is the one a fresh rand.New(rand.NewSource(seed)).Perm gives.
func drawPerm(r *rand.Rand, seed int64, order []int32) {
	r.Seed(seed)
	for i := range order {
		j := r.Intn(i + 1)
		order[i] = order[j]
		order[j] = int32(i)
	}
}

// coarsen contracts a random matching of g under the weight cap wcap,
// returning the coarse graph, the fine→coarse vertex map, and the op count
// of the matching plus edge collapse. The matching is maximal among the
// pairs that fit the cap. Matched pairs merge their Wcomp; parallel coarse
// edges are collapsed. g must be symmetric (every dual graph is); every
// coarse row comes out in ascending vertex order. The coarse graph
// carries only its adjacency and Wcomp, all that the spectral solve and
// the refinement read.
//
// The op count charges the paper's collapse: a sort of the packed coarse
// edge pairs, np·log2⌈np+1⌉ + np for np distinct coarse edges. The host
// collapses in linear time instead (a marker-array dedup per coarse row,
// then one transpose that leaves every row sorted), so the charge models
// an algorithm this code no longer runs.
func (s *coarsener) coarsen(g *dual.Graph, seed, wcap int64) (*dual.Graph, []int32, int64) {
	var ops int64
	order := s.order[:g.N]
	drawPerm(s.rng, seed, order)
	// match[c] holds coarse vertex c's fine members: the vertex that opened
	// it and its partner, or -1 when it stayed single.
	match := s.match[:0]
	cmap := make([]int32, g.N)
	for i := range cmap {
		cmap[i] = -1
	}
	var nc int32
	for _, v := range order {
		nbrs := g.Nbrs(v)
		ops += 1 + int64(len(nbrs))
		if cmap[v] >= 0 {
			continue
		}
		// Match the heaviest unmatched neighbour whose merged weight fits
		// the cap; v stays single when none does. Where the cap does not
		// bind, this is plain heavy-vertex matching.
		var best int32 = -1
		for _, w := range nbrs {
			if cmap[w] >= 0 || g.Wcomp[v]+g.Wcomp[w] > wcap {
				continue
			}
			if best < 0 || g.Wcomp[w] > g.Wcomp[best] {
				best = w
			}
		}
		cmap[v] = nc
		if best >= 0 {
			cmap[best] = nc
		}
		match = append(match, [2]int32{v, best})
		nc++
	}

	cg := &dual.Graph{
		N:          int(nc),
		Xadj:       make([]int32, nc+1),
		Wcomp:      make([]int64, nc),
		EdgeWeight: g.EdgeWeight,
	}
	for v, c := range cmap {
		cg.Wcomp[c] += g.Wcomp[v]
	}
	// Coarse rows in first-seen order: mark[cw] == c means cw is already in
	// row c, so each member's neighbours are deduplicated as they are read.
	mark := s.mark[:nc]
	for i := range mark {
		mark[i] = -1
	}
	nbr := s.nbr[:0]
	for c, mem := range match {
		for _, v := range mem {
			if v < 0 {
				continue
			}
			nbrs := g.Nbrs(v)
			ops += 1 + int64(len(nbrs))
			for _, w := range nbrs {
				if cw := cmap[w]; cw != int32(c) && mark[cw] != int32(c) {
					mark[cw] = int32(c)
					nbr = append(nbr, cw)
				}
			}
		}
		cg.Xadj[c+1] = int32(len(nbr))
	}
	np := len(nbr) / 2
	ops += int64(np)*int64(log2ceil(np+1)) + int64(np)
	// Transpose: row c's entries are written to their own rows in
	// ascending c, so every row ends sorted. The graph is symmetric, so
	// the transposed row has row c's length, and Xadj serves both.
	cg.Adjncy = make([]int32, len(nbr))
	next := mark
	copy(next, cg.Xadj[:nc])
	for c := range nc {
		for _, cw := range nbr[cg.Xadj[c]:cg.Xadj[c+1]] {
			cg.Adjncy[next[cw]] = c
			next[cw]++
		}
	}
	return cg, cmap, ops
}
