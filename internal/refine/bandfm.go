package refine

import (
	"plum/internal/dual"
	"plum/internal/machine"
)

// BandFM is the deterministic band-limited Fiduccia–Mattheyses refiner
// returned by Default. Each pass:
//
//  1. extracts the boundary band (vertices with a neighbour in another
//     part);
//  2. greedily colors the band-induced subgraph so no two vertices of a
//     color class are adjacent — the conflict-free move sets;
//  3. per class, computes every member's move proposal against a frozen
//     weight snapshot;
//  4. applies the proposals in class order, re-checking the balance cap
//     and part populations against live state.
//
// Because class members are pairwise non-adjacent, a proposal's gain is
// still exact when it is applied — every accepted move has gain ≥ 0, so
// the gain phase never increases the edge cut.
type BandFM struct{}

// Refine runs up to passes band sweeps over g, improving asg (a k-way
// assignment) in place, and returns the op accounting of the work
// performed.
func (r *BandFM) Refine(g *dual.Graph, asg []int32, k, passes int) machine.Ops {
	var ops machine.Ops
	if k <= 1 || g.N == 0 {
		return ops
	}
	w, cnt := partState(g, asg, k, &ops)
	maxW := balanceCap(w)
	ops.AddMem(int64(k))

	bandIdx := make([]int32, g.N) // band position + 1; 0 = outside the band
	w0 := make([]int64, k)        // per-class frozen weight snapshot
	conn := make([]int32, k)      // proposeMove's scratch
	var props []int32

	for pass := 0; pass < passes; pass++ {
		band, bops := extractBand(g, asg)
		ops.AddMem(bops)
		if len(band) == 0 {
			break
		}
		classes, cops := colorBand(g, band, bandIdx)
		ops.AddMem(cops)

		moved := 0
		for _, class := range classes {
			copy(w0, w)
			ops.AddMem(int64(k))
			props = props[:0]
			for _, v := range class {
				props = append(props, proposeMove(g, asg, v, w0, maxW, conn))
				ops.AddMem(1 + int64(len(g.Nbrs(v))))
			}

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
			ops.AddMem(int64(len(class)))
		}
		for _, v := range band {
			bandIdx[v] = 0
		}
		ops.AddMem(int64(len(band)))
		if moved == 0 {
			break
		}
	}
	ops.AddMem(overflowPass(g, asg, k, w, cnt, maxW, func(v, a, b int32) int64 {
		asg[v] = b
		w[a] -= g.Wcomp[v]
		w[b] += g.Wcomp[v]
		cnt[a]--
		cnt[b]++
		return 0
	}))
	return ops
}

// extractBand collects the boundary vertices in ascending index order.
// The adjacency scan breaks at the first cross-part neighbour.
func extractBand(g *dual.Graph, asg []int32) (band []int32, ops int64) {
	for v := int32(0); v < int32(g.N); v++ {
		a := asg[v]
		ops++
		for _, u := range g.Nbrs(v) {
			ops++
			if asg[u] != a {
				band = append(band, v)
				break
			}
		}
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
		adj := g.Nbrs(v)
		ops += 1 + int64(len(adj))
		nbr = nbr[:0]
		for _, u := range adj {
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
