// Package refine is the partition-refinement subsystem: boundary
// smoothing of a k-way dual-graph assignment after a partitioner has
// produced the raw cut. It was extracted from internal/partition when the
// serial Fiduccia–Mattheyses pass became the critical-path bottleneck of
// the SFC balance pipeline.
//
// Two refiners live here:
//
//   - FM (FMRefine on fresh scratch): the classic serial cascading
//     sweep, walking only the boundary, which it carries as moves
//     cascade — the one refiner a partitioner calls, at every level of
//     multilevel, with the boundary carried down the chain.
//   - BandFM (Default): a deterministic band-limited FM — extract the
//     boundary band, color it into conflict-free classes, compute move
//     proposals per class against a frozen snapshot, apply them in a
//     fixed order. No partitioner runs it: the SFC methods'
//     exact curve cut needs nothing after it. It is kept only because
//     bench/run.go's repartition probe still calls Default, and can be
//     deleted once that probe stops.
//
// Both pick a vertex's target part with the same move rule (proposeMove)
// — band-FM against a frozen per-class snapshot, FM against the live
// weights — and share the tolerance and overflow semantics: moves never
// push a part past the 3% balance cap, never empty a part, and a final
// overflow pass forces load out of parts the gain phase could not rescue.
// Their work is memory-bound op accounting.
package refine

import (
	"plum/internal/dual"
	"plum/internal/machine"
)

// Default returns the band-limited FM refiner at every graph size. No
// partitioner calls it (see the package doc).
//
// Deprecated: n and workers are ignored; they go when the benchmark stops
// passing them.
func Default(n, workers int) *BandFM {
	return &BandFM{}
}

// partState computes the per-part weight totals and populations,
// charging the scan and the k-sized reduction into ops.
func partState(g *dual.Graph, asg []int32, k int, ops *machine.Ops) (w []int64, cnt []int) {
	w = make([]int64, k)
	cnt = make([]int, k)
	for v, p := range asg[:g.N] {
		w[p] += g.Wcomp[v]
		cnt[p]++
	}
	ops.AddMem(int64(g.N) + int64(k))
	return w, cnt
}

// balanceCap returns the serial FM's 3% tolerance cap on per-part
// weight: no refinement move may push a part past it.
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

// overflowPass is the shared last-resort rebalancer: gain- and
// flow-driven moves alone cannot rescue a badly imbalanced input, so
// force vertices out of overloaded parts into their lightest neighbouring
// part, accepting cut damage, until every part fits or no vertex can
// leave. move reassigns v from part a to part b, carrying w and cnt (and
// whatever else the caller tracks), and returns its own op count. Purely
// serial; returns its op count: k per round for finding the heaviest
// overloaded part, one per vertex scanned plus deg for each vertex of that
// part whose neighbours it reads, and what the moves report.
func overflowPass(g *dual.Graph, asg []int32, k int, w []int64, cnt []int, maxW int64, move func(v, a, b int32) int64) int64 {
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
				ops += move(v, int32(over), best)
				moved = true
			}
		}
		if !moved {
			return ops
		}
	}
	return ops
}
