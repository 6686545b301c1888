// Package refine is the partition-refinement subsystem: boundary
// smoothing of a k-way dual-graph assignment after a partitioner has
// produced the raw cut. It was extracted from internal/partition when the
// serial Fiduccia–Mattheyses pass became the critical-path bottleneck of
// the otherwise-parallel SFC balance pipeline.
//
// Three backends implement the Refiner interface:
//
//   - BandFM:    a deterministic band-limited parallel FM — extract the
//     boundary band, color it into conflict-free classes, compute gains
//     per class in parallel against a frozen snapshot, apply moves in a
//     fixed serial order. Byte-identical output at every worker count.
//   - Diffusion: a Jostle-style weighted-diffusion refiner — first-order
//     load exchange along the part-adjacency graph. Trades edge cut for
//     convergence speed on badly imbalanced inputs.
//   - FM:        the classic serial boundary sweep (the pre-band
//     reference implementation): Multilevel's per-level default and the
//     "fm" scenario knob.
//
// All backends share the serial FM's tolerance and overflow semantics:
// moves never push a part past the 3% balance cap, never empty a part,
// and a final overflow pass forces load out of parts the gain phase could
// not rescue. Every Refine call reports its work as memory-bound
// machine.Ops charged at the effective worker count of the path actually
// executed — a serial fallback below SerialCutoff reports Crit == Total.
package refine

import (
	"plum/internal/chunk"
	"plum/internal/dual"
	"plum/internal/machine"
)

// Refiner improves a k-way assignment in place. Implementations must
// preserve assignment validity (entries in [0, k), no part emptied), keep
// every move inside the 3% balance cap, and be deterministic at every
// worker count.
type Refiner interface {
	// Name is the CLI-facing backend name.
	Name() string
	// Refine runs up to passes improvement sweeps over g and returns the
	// op accounting of the work performed.
	Refine(g *dual.Graph, asg []int32, k, passes int) machine.Ops
}

// SerialCutoff is the vertex count below which the band machinery's
// chunk bookkeeping costs more than the parallelism recovers; smaller
// graphs run the serial replay and report Crit == Total.
const SerialCutoff = 1 << 12

// EffectiveWorkers resolves the worker count a refinement actually runs
// with: the knob (≤ 0 = GOMAXPROCS), clamped to 1 below SerialCutoff.
// Cost models must divide the parallel phases by this figure, not by the
// raw knob — the serial fallback must be charged serially.
func EffectiveWorkers(n, workers int) int {
	return chunk.EffectiveWorkers(n, workers, SerialCutoff)
}

// Default returns the backend used when no refiner is forced: the
// band-limited FM, at every graph size and worker count. Below
// SerialCutoff, or with one worker, BandFM runs its serial replay, which
// is byte-identical to its parallel path — so the default cut never
// depends on how many workers computed it. Choosing the cheaper classic
// sweep for serial hosts would break that: FM and BandFM produce
// different (equally valid) cuts. The graph size n therefore plays no
// part; it stays in the signature callers already spell.
func Default(n, workers int) Refiner {
	return NewBandFM(workers)
}

// Names lists the available backends, default first — the iteration
// table for CLI validation and tests.
var Names = []string{"bandfm", "diffusion", "fm"}

// ByName returns the refiner with the given CLI name ("" selects the
// default BandFM) at the given worker knob.
func ByName(name string, workers int) (Refiner, bool) {
	switch name {
	case "", "bandfm":
		return NewBandFM(workers), true
	case "diffusion":
		return NewDiffusion(workers), true
	case "fm":
		return FM{}, true
	}
	return nil, false
}

// partState computes the per-part weight totals and populations with a
// chunked scan (int64 addition is exact, so the chunk-order merge is
// identical at every worker count), charging the scan at ew workers.
func partState(g *dual.Graph, asg []int32, k, ew int, ops *machine.Ops) (w []int64, cnt []int) {
	nc := chunk.Count(g.N, ew)
	pw := make([][]int64, nc)
	pc := make([][]int, nc)
	chunk.For(g.N, ew, func(c, lo, hi int) {
		wloc := make([]int64, k)
		cloc := make([]int, k)
		for v := lo; v < hi; v++ {
			p := asg[v]
			wloc[p] += g.Wcomp[v]
			cloc[p]++
		}
		pw[c] = wloc
		pc[c] = cloc
	})
	w = make([]int64, k)
	cnt = make([]int, k)
	for c := 0; c < nc; c++ {
		for p := 0; p < k; p++ {
			w[p] += pw[c][p]
			cnt[p] += pc[c][p]
		}
	}
	// The scan is charged in parallel and the k-sized reduction serially;
	// the per-chunk partial arrays are folded into each worker's scan so
	// Total stays identical at every worker count (only Crit may differ).
	ops.AddParallelMem(int64(g.N), ew)
	ops.AddSerialMem(int64(k))
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
// leave. Purely serial; returns its op count.
func overflowPass(g *dual.Graph, asg []int32, k int, w []int64, cnt []int, maxW int64) int64 {
	var ops int64
	for iter := 0; iter < 2*k; iter++ {
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
		for v := 0; v < g.N && w[over] > maxW; v++ {
			ops++
			if asg[v] != int32(over) || cnt[over] <= 1 {
				continue
			}
			best := int32(-1)
			for _, u := range g.Adj[v] {
				b := asg[u]
				if b == int32(over) {
					continue
				}
				if best < 0 || w[b] < w[best] {
					best = b
				}
			}
			if best >= 0 && w[best]+g.Wcomp[v] <= maxW {
				asg[v] = best
				w[over] -= g.Wcomp[v]
				w[best] += g.Wcomp[v]
				cnt[over]--
				cnt[best]++
				moved = true
			}
		}
		if !moved {
			return ops
		}
	}
	return ops
}
