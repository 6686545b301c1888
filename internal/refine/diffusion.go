package refine

import (
	"slices"

	"plum/internal/chunk"
	"plum/internal/dual"
	"plum/internal/machine"
)

// Diffusion is a Jostle-style weighted-diffusion refiner: load flows
// along the part-adjacency graph under a first-order diffusion scheme
// (the flow across each part edge is the weight difference damped by the
// larger endpoint degree), realized by migrating boundary vertices toward
// the neighbouring part with the largest unmet demand. Diffusion
// parallelizes naturally — the flow computation and the candidate scan
// are read-only over frozen state, and only the final apply is serial —
// and converges on badly imbalanced inputs where gain-ordered FM stalls,
// at the price of a rougher edge cut.
//
// The same determinism argument as BandFM applies: parallel phases are
// pure functions of a frozen snapshot, candidates are concatenated in
// chunk (= vertex) order, and the apply is serial in that fixed order, so
// the output is byte-identical at every worker count.
type Diffusion struct {
	// Workers bounds the worker-goroutine count of the scan phases
	// (≤ 0 = GOMAXPROCS). Output is identical at every value.
	Workers int
}

// NewDiffusion returns a weighted-diffusion refiner with the given
// worker knob.
func NewDiffusion(workers int) *Diffusion { return &Diffusion{Workers: workers} }

// Name implements Refiner.
func (d *Diffusion) Name() string { return "diffusion" }

// pairKey packs a directed part pair (p → q) for the flow table.
func pairKey(p, q int32) uint64 { return uint64(uint32(p))<<32 | uint64(uint32(q)) }

// Refine implements Refiner. passes scales the number of diffusion
// iterations (two per pass, matching the FM backends' sweep budget).
func (d *Diffusion) Refine(g *dual.Graph, asg []int32, k, passes int) machine.Ops {
	var ops machine.Ops
	if k <= 1 || g.N == 0 {
		return ops
	}
	ew := EffectiveWorkers(g.N, d.Workers)
	w, cnt := partState(g, asg, k, ew, &ops)
	maxW := balanceCap(w)
	iters := 2 * passes
	if iters < 1 {
		iters = 1
	}
	deg := make([]int32, k)
	for it := 0; it < iters; it++ {
		// Part-adjacency edges of the current cut, deduplicated.
		pairs, pops := cutPairs(g, asg, ew)
		ops.AddParallelMem(pops, ew)
		ops.AddSerialMem(int64(len(pairs)))
		if len(pairs) == 0 {
			break
		}

		// First-order-scheme flows: across part edge {p, q}, transfer
		// (w[p] − w[q]) / (1 + max(deg_p, deg_q)) from the heavier side.
		for p := range deg {
			deg[p] = 0
		}
		for _, pq := range pairs {
			deg[pq>>32]++
			deg[uint32(pq)]++
		}
		flow := make(map[uint64]int64, len(pairs))
		for _, pq := range pairs {
			p, q := int32(pq>>32), int32(uint32(pq))
			dd := deg[p]
			if deg[q] > dd {
				dd = deg[q]
			}
			f := (w[p] - w[q]) / int64(1+dd)
			if f > 0 {
				flow[pairKey(p, q)] = f
			} else if f < 0 {
				flow[pairKey(q, p)] = -f
			}
		}
		ops.AddSerialMem(int64(len(pairs)))
		if len(flow) == 0 {
			break
		}

		// Candidate scan: each boundary vertex volunteers for the
		// neighbouring part with the largest incoming flow from its own.
		// Read-only over the frozen flow table; chunk concatenation keeps
		// candidates in ascending vertex order.
		cands, cops := flowCandidates(g, asg, flow, ew)
		ops.AddParallelMem(cops, ew)

		// Serial apply in vertex order, draining each pair's flow budget.
		moved := 0
		for _, c := range cands {
			p := asg[c.v]
			wv := g.Wcomp[c.v]
			key := pairKey(p, c.q)
			f := flow[key]
			if f <= 0 || 2*f < wv || cnt[p] <= 1 || w[c.q]+wv > maxW {
				continue
			}
			asg[c.v] = c.q
			w[p] -= wv
			w[c.q] += wv
			cnt[p]--
			cnt[c.q]++
			flow[key] = f - wv
			moved++
		}
		ops.AddSerialMem(int64(len(cands)))
		if moved == 0 {
			break
		}
	}
	ops.AddSerialMem(overflowPass(g, asg, k, w, cnt, maxW))
	ops.Clamp()
	return ops
}

// cutPairs returns the normalized (small, large) part pairs with at least
// one cut edge, sorted and deduplicated — the part-adjacency graph. The
// edge scan is chunked; the merge sort-and-compact is deterministic
// regardless of chunk layout.
func cutPairs(g *dual.Graph, asg []int32, ew int) (pairs []uint64, ops int64) {
	nc := chunk.Count(g.N, ew)
	parts := make([][]uint64, nc)
	chunkOps := make([]int64, nc)
	chunk.For(g.N, ew, func(c, lo, hi int) {
		var local []uint64
		var lops int64
		for v := lo; v < hi; v++ {
			p := asg[v]
			lops += 1 + int64(len(g.Adj[v]))
			for _, u := range g.Adj[v] {
				q := asg[u]
				if q == p {
					continue
				}
				a, b := p, q
				if a > b {
					a, b = b, a
				}
				local = append(local, pairKey(a, b))
			}
		}
		parts[c] = local
		chunkOps[c] = lops
	})
	for c := 0; c < nc; c++ {
		pairs = append(pairs, parts[c]...)
		ops += chunkOps[c]
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	ops += int64(len(pairs))
	return pairs, ops
}

type flowCand struct {
	v, q int32
}

// flowCandidates pairs every boundary vertex with the neighbouring part
// owed the most flow from the vertex's own part (ties to the smallest
// part id). The flow table is frozen during the scan.
func flowCandidates(g *dual.Graph, asg []int32, flow map[uint64]int64, ew int) (cands []flowCand, ops int64) {
	nc := chunk.Count(g.N, ew)
	parts := make([][]flowCand, nc)
	chunkOps := make([]int64, nc)
	chunk.For(g.N, ew, func(c, lo, hi int) {
		var local []flowCand
		var lops int64
		for v := lo; v < hi; v++ {
			p := asg[v]
			lops += 1 + int64(len(g.Adj[v]))
			best := int32(-1)
			var bestF int64
			for _, u := range g.Adj[v] {
				q := asg[u]
				if q == p {
					continue
				}
				f := flow[pairKey(p, q)]
				if f > bestF || (f == bestF && f > 0 && q < best) {
					best, bestF = q, f
				}
			}
			if best >= 0 && bestF > 0 {
				local = append(local, flowCand{v: int32(v), q: best})
			}
		}
		parts[c] = local
		chunkOps[c] = lops
	})
	for c := 0; c < nc; c++ {
		cands = append(cands, parts[c]...)
		ops += chunkOps[c]
	}
	return cands, ops
}
