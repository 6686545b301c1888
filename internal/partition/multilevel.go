package partition

import (
	"math/rand"
	"slices"

	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/refine"
)

// multilevelCounted partitions by the Chaco-style multilevel scheme: the
// dual graph is coarsened by repeated edge matchings until it is small,
// the coarse graph is partitioned spectrally, and the partition is
// projected back up with boundary refinement at every level. It counts
// the matching and edge-collapse work of every coarsening level, the
// spectral solve on the coarsest graph, and the projection plus boundary
// refinement of every uncoarsening level. The scheme itself is serial (only the configured
// refiner's passes may parallelize, on levels big enough to engage it).
// opt.Seed offsets the per-level matching RNG; seed 1 reproduces the
// historical level-index seeding.
func multilevelCounted(g *dual.Graph, k int, opt Options) (Assignment, machine.Ops) {
	const coarseTarget = 200
	target := coarseTarget
	if 4*k > target {
		target = 4 * k
	}
	seed := opt.Seed
	// Multilevel's per-level graphs are small and the scheme is serial,
	// so its historical default refiner is the classic cascading FM
	// sweep; an explicitly configured backend (Options.Refiner) wins.
	r := opt.Refiner
	if r == nil {
		r = refine.FM{}
	}

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
	ops.Add(r.Refine(cur, asg, k, 4))

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
		ops.Add(r.Refine(fine, asg, k, 2))
	}
	return asg, ops
}

// coarsenCounted contracts a random maximal matching of g, returning the
// coarse graph, the fine→coarse vertex map, and the op count of the
// matching plus edge collapse. Matched pairs merge their weights;
// parallel coarse edges are collapsed.
func coarsenCounted(g *dual.Graph, seed int64) (*dual.Graph, []int32, int64) {
	var ops int64
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(g.N)
	match := make([]int32, g.N)
	for i := range match {
		match[i] = -1
	}
	cmap := make([]int32, g.N)
	for i := range cmap {
		cmap[i] = -1
	}
	var nc int32
	for _, vi := range order {
		v := int32(vi)
		ops += 1 + int64(len(g.Adj[v]))
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
			match[v] = best
		}
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
	// Coarse-edge dedup via sorted packed pairs instead of a per-level
	// map: each undirected coarse edge appears once per endpoint in the
	// scan; one sort-and-compact collapses the duplicates with no hashing
	// and no per-level map reallocation.
	pairs := make([]uint64, 0, 2*g.N)
	for v := 0; v < g.N; v++ {
		cv := cmap[v]
		ops += 1 + int64(len(g.Adj[v]))
		for _, w := range g.Adj[v] {
			cw := cmap[w]
			if cv == cw {
				continue
			}
			a, b := cv, cw
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, uint64(uint32(a))<<32|uint64(uint32(b)))
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	ops += int64(len(pairs))*int64(log2ceil(len(pairs)+1)) + int64(len(pairs))
	// Adjacency rows: degrees counted from the pairs, every row carved at
	// its exact length from one backing array, then filled in pair order.
	deg := make([]int32, nc)
	for _, pq := range pairs {
		deg[pq>>32]++
		deg[uint32(pq)]++
	}
	back := make([]int32, 2*len(pairs))
	for c, n := range deg {
		cg.Adj[c], back = back[:0:n], back[n:]
	}
	for _, pq := range pairs {
		a, b := int32(pq>>32), int32(uint32(pq))
		cg.Adj[a] = append(cg.Adj[a], b)
		cg.Adj[b] = append(cg.Adj[b], a)
	}
	return cg, cmap, ops
}

// Boundary refinement lives in internal/refine since the band-FM
// extraction: the classic serial sweep is refine.FMRefine, and the
// partitioners smooth their cuts through the Options.Refiner backend
// (refine.BandFM by default).
