package refine

import (
	"plum/internal/chunk"
	"plum/internal/dual"
	"plum/internal/machine"
)

// BandFM is the deterministic band-limited parallel Fiduccia–Mattheyses
// refiner — the default backend. Each pass:
//
//  1. extracts the boundary band (vertices with a neighbour in another
//     part) with a chunked parallel scan;
//  2. greedily colors the band-induced subgraph so no two vertices of a
//     color class are adjacent — the conflict-free move sets;
//  3. per class, computes every member's move proposal in parallel
//     against a frozen weight snapshot (read-only: nothing mutates during
//     the phase, so the proposals are independent of chunking);
//  4. applies the proposals serially in class order, re-checking the
//     balance cap and part populations against live state.
//
// Because class members are pairwise non-adjacent, a proposal's gain is
// still exact when it is applied — every accepted move has gain ≥ 0, so
// the gain phase never increases the edge cut. The serial apply order is
// fixed by vertex index, so the output is byte-identical at every worker
// count; below SerialCutoff the same algorithm runs as a serial replay
// and is charged serially (Crit == Total).
type BandFM struct {
	// Workers bounds the worker-goroutine count of the band-extraction
	// and gain phases (≤ 0 = GOMAXPROCS). Output is identical at every
	// value.
	Workers int
}

// NewBandFM returns a band-limited FM refiner with the given worker knob.
func NewBandFM(workers int) *BandFM { return &BandFM{Workers: workers} }

// Name implements Refiner.
func (r *BandFM) Name() string { return "bandfm" }

// Refine implements Refiner.
func (r *BandFM) Refine(g *dual.Graph, asg []int32, k, passes int) machine.Ops {
	var ops machine.Ops
	if k <= 1 || g.N == 0 {
		return ops
	}
	ew := EffectiveWorkers(g.N, r.Workers)
	w, cnt := partState(g, asg, k, ew, &ops)
	maxW := balanceCap(w)
	ops.AddSerialMem(int64(k))

	bandIdx := make([]int32, g.N) // band position + 1; 0 = outside the band
	w0 := make([]int64, k)        // per-class frozen weight snapshot

	for pass := 0; pass < passes; pass++ {
		band, bops := extractBand(g, asg, ew)
		ops.AddParallelMem(bops, ew)
		if len(band) == 0 {
			break
		}
		classes, cops := colorBand(g, band, bandIdx)
		ops.AddSerialMem(cops)

		moved := 0
		for _, class := range classes {
			copy(w0, w)
			ops.AddSerialMem(int64(k))
			props := make([]int32, len(class))
			nc := chunk.Count(len(class), ew)
			chunkOps := make([]int64, nc)
			chunk.For(len(class), ew, func(c, lo, hi int) {
				conn := make([]int32, k)
				var lops int64
				for i := lo; i < hi; i++ {
					v := class[i]
					props[i] = proposeMove(g, asg, v, w0, maxW, conn)
					lops += 1 + int64(len(g.Adj[v]))
				}
				chunkOps[c] = lops
			})
			var gops int64
			for _, c := range chunkOps {
				gops += c
			}
			// Charged at nc, not ew: a class smaller than the worker pool
			// only ran nc-way parallel, and the critical path must reflect
			// the parallelism the phase actually achieved.
			ops.AddParallelMem(gops, nc)

			for i, v := range class {
				b := props[i]
				a := asg[v]
				if b == a || cnt[a] <= 1 || w[b]+g.Wcomp[v] > maxW {
					continue
				}
				asg[v] = b
				w[a] -= g.Wcomp[v]
				w[b] += g.Wcomp[v]
				cnt[a]--
				cnt[b]++
				moved++
			}
			ops.AddSerialMem(int64(len(class)))
		}
		for _, v := range band {
			bandIdx[v] = 0
		}
		ops.AddSerialMem(int64(len(band)))
		if moved == 0 {
			break
		}
	}
	ops.AddSerialMem(overflowPass(g, asg, k, w, cnt, maxW))
	ops.Clamp()
	return ops
}

// extractBand collects the boundary vertices in ascending index order
// with a chunked scan. Chunks are contiguous index ranges concatenated in
// chunk order, so the band is identical at every worker count. The
// adjacency scan breaks at the first cross-part neighbour.
func extractBand(g *dual.Graph, asg []int32, ew int) (band []int32, ops int64) {
	nc := chunk.Count(g.N, ew)
	parts := make([][]int32, nc)
	chunkOps := make([]int64, nc)
	chunk.For(g.N, ew, func(c, lo, hi int) {
		var local []int32
		var lops int64
		for v := lo; v < hi; v++ {
			a := asg[v]
			lops++
			for _, u := range g.Adj[v] {
				lops++
				if asg[u] != a {
					local = append(local, int32(v))
					break
				}
			}
		}
		parts[c] = local
		chunkOps[c] = lops
	})
	for c := 0; c < nc; c++ {
		band = append(band, parts[c]...)
		ops += chunkOps[c]
	}
	return band, ops
}

// colorBand greedily colors the band-induced subgraph in vertex order,
// returning the color classes. bandIdx is an N-sized scratch the caller
// resets between passes; it records each band vertex's position + 1 so
// adjacency scans can find already-colored band neighbours in O(deg).
// Classes are independent sets: no two members are adjacent.
func colorBand(g *dual.Graph, band []int32, bandIdx []int32) (classes [][]int32, ops int64) {
	for i, v := range band {
		bandIdx[v] = int32(i) + 1
	}
	color := make([]int32, len(band))
	var nbr []int32 // scratch: colors already taken by band neighbours
	for i, v := range band {
		ops += 1 + int64(len(g.Adj[v]))
		nbr = nbr[:0]
		for _, u := range g.Adj[v] {
			if j := bandIdx[u]; j > 0 && int(j-1) < i {
				nbr = append(nbr, color[j-1])
			}
		}
		c := int32(0)
		for taken(nbr, c) {
			c++
		}
		color[i] = c
		for int(c) >= len(classes) {
			classes = append(classes, nil)
		}
		classes[c] = append(classes[c], v)
	}
	return classes, ops
}

func taken(colors []int32, c int32) bool {
	for _, x := range colors {
		if x == c {
			return true
		}
	}
	return false
}

// proposeMove replicates the serial FM move selection for v against the
// frozen weight snapshot w0: the best positive-gain move that fits the
// balance cap, or a zero-gain move into a strictly lighter part. conn is
// a k-sized scratch owned by the calling worker.
func proposeMove(g *dual.Graph, asg []int32, v int32, w0 []int64, maxW int64, conn []int32) int32 {
	a := asg[v]
	for i := range conn {
		conn[i] = 0
	}
	adj := g.Adj[v]
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
		fits := w0[b]+wv <= maxW
		better := gain > bestGain && fits
		balances := gain == bestGain && bestPart == a && w0[b]+wv < w0[a]
		if better || (balances && fits) {
			bestPart = b
			bestGain = gain
		}
	}
	return bestPart
}
