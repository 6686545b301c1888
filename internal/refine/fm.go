package refine

import "plum/internal/dual"

// FMRefine performs Fiduccia–Mattheyses-style boundary refinement on a
// k-way assignment in place: boundary vertices greedily move to adjacent
// parts when the move reduces the edge cut without violating the balance
// tolerance, or when it strictly improves balance at equal cut. Moves
// apply immediately and cascade within a sweep, so the work is inherently
// serial. passes bounds the number of sweeps. It returns the abstract
// operation count of the refinement (vertex visits plus adjacency scans)
// for machine-model cost accounting.
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
		for v := range int32(g.N) {
			nbrs := g.Nbrs(v)
			ops += 1 + int64(len(nbrs))
			a := asg[v]
			if cnt[a] <= 1 {
				continue
			}
			boundary := false
			for _, u := range nbrs {
				if asg[u] != a {
					boundary = true
					break
				}
			}
			if !boundary {
				continue
			}
			if b := proposeMove(g, asg, v, w, maxW, conn); b != a {
				asg[v] = b
				w[a] -= g.Wcomp[v]
				w[b] += g.Wcomp[v]
				cnt[a]--
				cnt[b]++
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
