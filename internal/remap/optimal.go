package remap

// Optimal computes the optimal processor assignment — the mapping that
// maximizes the objective 𝒥 — by reducing to maximally weighted bipartite
// matching exactly as the paper does: each processor and all of its
// incident edges are duplicated F times, giving a square (P·F)×(P·F)
// problem solved with the Hungarian algorithm, after which the F copies of
// each processor are combined into a one-to-F mapping. It returns the
// mapping, its objective 𝒥, and the (P·F)³ inner-loop operation count of
// the matching.
//
// Complexity is O((P·F)³) time and a dense (P·F)² matrix; the paper
// reports (and our Fig. 10 bench reproduces) roughly two orders of
// magnitude more runtime than the greedy heuristic. It is the exact
// reference, not a cycle option: internal/core maps every balance pass
// with Heuristic, and Optimal is called only by Fig. 10
// (experiments.RunFig10), examples/remapdemo and the tests.
func (s *Similarity) Optimal() (mp Mapping, objective, ops int64) {
	n := s.Cols()
	// Build the duplicated cost matrix for minimization: row r is copy
	// r%F of processor r/F; cost = maxS − S so that minimal cost matches
	// maximal weight. The matrix is dense — the matching is O(n³) anyway.
	var maxS int64
	for _, e := range s.ents {
		maxS = max(maxS, e.w)
	}
	cost := make([][]int64, n)
	for r := 0; r < n; r++ {
		cost[r] = make([]int64, n)
		for j := range cost[r] {
			cost[r][j] = maxS
		}
		for _, e := range s.row(r / s.F) {
			cost[r][e.col] = maxS - e.w
		}
	}
	colRow := hungarian(cost)
	mp = make(Mapping, n)
	for j, r := range colRow {
		mp[j] = int32(r / s.F)
	}
	return mp, s.Objective(mp), int64(n) * int64(n) * int64(n) // Hungarian inner loops
}

// hungarian solves the square assignment problem (minimize total cost) and
// returns, for each column, the row assigned to it. Classic O(n³)
// potentials formulation (Jonker–Volgenant style).
func hungarian(cost [][]int64) []int {
	n := len(cost)
	const inf = int64(1) << 62

	u := make([]int64, n+1)
	v := make([]int64, n+1)
	p := make([]int, n+1)   // p[j] = row matched to column j (1-based; 0 = none)
	way := make([]int, n+1) // way[j] = previous column on the alternating path

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]int64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	colRow := make([]int, n)
	for j := 1; j <= n; j++ {
		colRow[j-1] = p[j] - 1
	}
	return colRow
}
