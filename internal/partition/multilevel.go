package partition

import (
	"math/rand"

	"plum/internal/dual"
	"plum/internal/geom"
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
func multilevelCounted(g *dual.Graph, k int, opt Options) (Assignment, machine.Ops) {
	const coarseTarget = 200
	target := coarseTarget
	if 4*k > target {
		target = 4 * k
	}
	seed := opt.Seed

	var ops machine.Ops

	// Coarsening chain.
	type level struct {
		g    *dual.Graph
		map_ []int32 // fine vertex -> coarse vertex (nil for the finest)
	}
	levels := []level{{g: g}}
	cur := g
	for cur.N > target {
		cg, cmap, cops := coarsenCounted(cur, seed-1+int64(len(levels)))
		ops.AddSerial(cops)
		if cg.N >= cur.N*9/10 {
			break // matching stalled; stop coarsening
		}
		levels = append(levels, level{g: cg, map_: cmap})
		cur = cg
	}

	// Initial partition of the coarsest graph.
	asg, sops := spectralCounted(cur, k)
	ops.Add(sops)
	ops.AddSerialMem(refine.FMRefine(cur, asg, k, 4))

	// Uncoarsen with refinement.
	for li := len(levels) - 1; li >= 1; li-- {
		fine := levels[li-1].g
		cmap := levels[li].map_
		fineAsg := make(Assignment, fine.N)
		for v := range fineAsg {
			fineAsg[v] = asg[cmap[v]]
		}
		asg = fineAsg
		ops.AddSerial(int64(fine.N))
		ops.AddSerialMem(refine.FMRefine(fine, asg, k, 2))
	}
	return asg, ops
}

// coarsenCounted contracts a random maximal matching of g, returning the
// coarse graph, the fine→coarse vertex map, and the op count of the
// matching plus edge collapse. Matched pairs merge their weights;
// parallel coarse edges are collapsed. g must be symmetric (every dual
// graph is); every coarse row comes out in ascending vertex order.
//
// The op count charges the paper's collapse: a sort of the packed coarse
// edge pairs, np·log2⌈np+1⌉ + np for np distinct coarse edges. The host
// collapses in linear time instead (a marker-array dedup per coarse row,
// then one transpose that leaves every row sorted), so the charge models
// an algorithm this code no longer runs.
func coarsenCounted(g *dual.Graph, seed int64) (*dual.Graph, []int32, int64) {
	var ops int64
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(g.N)
	// match[c] holds coarse vertex c's fine members: the vertex that opened
	// it and its partner, or -1 when it stayed single.
	match := make([][2]int32, 0, g.N)
	cmap := make([]int32, g.N)
	for i := range cmap {
		cmap[i] = -1
	}
	var nc int32
	fineNnz := 0
	for _, vi := range order {
		v := int32(vi)
		ops += 1 + int64(len(g.Adj[v]))
		fineNnz += len(g.Adj[v])
		if cmap[v] >= 0 {
			continue
		}
		// Prefer the heaviest unmatched neighbour (heavy-vertex matching
		// keeps coarse weights even).
		var best int32 = -1
		for _, w := range g.Adj[v] {
			if cmap[w] >= 0 {
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
		Adj:        make([][]int32, nc),
		Wcomp:      make([]int64, nc),
		Wremap:     make([]int64, nc),
		EdgeWeight: g.EdgeWeight,
		Centroid:   make([]geom.Vec3, nc),
	}
	cnt := make([]float64, nc)
	for v := 0; v < g.N; v++ {
		c := cmap[v]
		cg.Wcomp[c] += g.Wcomp[v]
		cg.Wremap[c] += g.Wremap[v]
		cg.Centroid[c] = cg.Centroid[c].Add(g.Centroid[v])
		cnt[c]++
	}
	for c := range cg.Centroid {
		if cnt[c] > 0 {
			cg.Centroid[c] = cg.Centroid[c].Scale(1 / cnt[c])
		}
	}
	// Coarse rows in first-seen order: mark[cw] == c means cw is already in
	// row c, so each member's neighbours are deduplicated as they are read.
	mark := make([]int32, nc)
	for i := range mark {
		mark[i] = -1
	}
	nbr := make([]int32, 0, fineNnz)
	off := make([]int32, nc+1)
	for c, mem := range match {
		for _, v := range mem {
			if v < 0 {
				continue
			}
			ops += 1 + int64(len(g.Adj[v]))
			for _, w := range g.Adj[v] {
				if cw := cmap[w]; cw != int32(c) && mark[cw] != int32(c) {
					mark[cw] = int32(c)
					nbr = append(nbr, cw)
				}
			}
		}
		off[c+1] = int32(len(nbr))
	}
	np := len(nbr) / 2
	ops += int64(np)*int64(log2ceil(np+1)) + int64(np)
	// Transpose: row c's entries are appended to their own rows in
	// ascending c, so every row ends sorted. The graph is symmetric, so
	// the transposed row has row c's length and is carved at it.
	back := make([]int32, len(nbr))
	for c := range cg.Adj {
		n := off[c+1] - off[c]
		cg.Adj[c], back = back[:0:n], back[n:]
	}
	for c := range cg.Adj {
		for _, cw := range nbr[off[c]:off[c+1]] {
			cg.Adj[cw] = append(cg.Adj[cw], int32(c))
		}
	}
	return cg, cmap, ops
}
