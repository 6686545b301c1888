package refine

import (
	"plum/internal/dual"
	"plum/internal/machine"
)

// FM wraps the classic serial Fiduccia–Mattheyses sweep as a Refiner —
// the pre-band reference implementation, kept as a scenario knob. It is
// inherently serial (moves apply immediately and cascade within a sweep),
// so Crit always equals Total.
type FM struct{}

// Name implements Refiner.
func (FM) Name() string { return "fm" }

// Refine implements Refiner.
func (FM) Refine(g *dual.Graph, asg []int32, k, passes int) machine.Ops {
	var ops machine.Ops
	ops.AddSerialMem(FMRefine(g, asg, k, passes))
	return ops
}

// FMRefine performs Fiduccia–Mattheyses-style boundary refinement on a
// k-way assignment in place: boundary vertices greedily move to adjacent
// parts when the move reduces the edge cut without violating the balance
// tolerance, or when it strictly improves balance at equal cut. passes
// bounds the number of sweeps. It returns the abstract operation count of
// the refinement (vertex visits plus adjacency scans) for machine-model
// cost accounting.
func FMRefine(g *dual.Graph, asg []int32, k, passes int) int64 {
	var ops int64
	if k <= 1 {
		return ops
	}
	w := make([]int64, k)
	for v, p := range asg {
		w[p] += g.Wcomp[v]
	}
	maxW := balanceCap(w)

	// Part populations: a move must never empty its source part (a valid
	// Assignment keeps every part non-empty).
	cnt := make([]int, k)
	for _, p := range asg {
		cnt[p]++
	}

	conn := make([]int32, k) // scratch: edges from v into each part
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < g.N; v++ {
			ops += 1 + int64(len(g.Adj[v]))
			a := asg[v]
			if cnt[a] <= 1 {
				continue
			}
			boundary := false
			for _, u := range g.Adj[v] {
				if asg[u] != a {
					boundary = true
					break
				}
			}
			if !boundary {
				continue
			}
			for i := range conn {
				conn[i] = 0
			}
			for _, u := range g.Adj[v] {
				conn[asg[u]]++
			}
			bestPart := a
			bestGain := int32(0)
			for _, u := range g.Adj[v] {
				b := asg[u]
				if b == a || b == bestPart {
					continue
				}
				gain := conn[b] - conn[a]
				fits := w[b]+g.Wcomp[v] <= maxW
				better := gain > bestGain && fits
				balances := gain == bestGain && bestPart == a && w[b]+g.Wcomp[v] < w[a]
				if better || (balances && fits) {
					bestPart = b
					bestGain = gain
				}
			}
			if bestPart != a {
				asg[v] = bestPart
				w[a] -= g.Wcomp[v]
				w[bestPart] += g.Wcomp[v]
				cnt[a]--
				cnt[bestPart]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	ops += overflowPass(g, asg, k, w, cnt, maxW)
	return ops
}
