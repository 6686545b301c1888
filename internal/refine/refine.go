// Package refine is the partition-refinement subsystem: boundary
// smoothing of a k-way dual-graph assignment after a partitioner has
// produced the raw cut.
//
// One refiner lives here: FM (FMRefine on fresh scratch), the classic
// serial Fiduccia–Mattheyses cascading sweep, walking only the boundary,
// which it carries as moves cascade. Multilevel calls it at every level,
// with the boundary carried down the chain, and after it rebalances the
// owners, over the vertices it moved. The curve methods call nothing here: their exact
// minimum-bottleneck cut needs nothing after it.
//
// A move never pushes a part past the 3% balance cap and never empties a
// part, and a final overflow pass forces load out of parts the gain phase
// could not rescue. The work is memory-bound op accounting.
package refine

import (
	"plum/internal/dual"
	"plum/internal/machine"
)

// Inert is the refiner Default returns: it refines nothing.
//
// Deprecated: it goes with Default.
type Inert struct{}

// Refine leaves asg untouched and returns no ops.
//
// Deprecated: it goes with Default.
func (Inert) Refine(g *dual.Graph, asg []int32, k, passes int) machine.Ops {
	return machine.Ops{}
}

// Default returns a refiner that does nothing. No partitioner calls
// anything after the curve cut.
//
// Deprecated: it goes, with both ignored arguments, when the benchmark
// stops calling it.
func Default(n, workers int) Inert {
	return Inert{}
}

// BalanceCap returns the serial FM's 3% tolerance cap on per-part
// weight: no refinement move may push a part past it.
func BalanceCap(w []int64) int64 {
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

// overflowPass is FM's last-resort rebalancer: gain-driven moves alone
// cannot rescue a badly imbalanced input, so force vertices out of overloaded parts into their lightest neighbouring
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
