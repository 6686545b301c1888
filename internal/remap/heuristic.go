package remap

// Heuristic computes a processor assignment with the paper's greedy
// mark-and-map algorithm and returns the mapping and its objective 𝒥.
//
// The algorithm repeats two steps until every partition is assigned:
//
//	mark: every processor that still needs partitions marks its largest
//	      unassigned similarity entries (as many as it still needs);
//	map:  every unassigned partition with at least one mark is assigned
//	      to the processor holding the largest marked entry in its
//	      column.
//
// The paper proves the resulting data-movement cost is never more than
// twice the optimal cost, and measures it within 3% of optimal at roughly
// 1% of the optimal algorithm's runtime.
func (s *Similarity) Heuristic() (Mapping, int64) {
	cols := s.Cols()
	mp := make(Mapping, cols)
	for j := range mp {
		mp[j] = -1
	}
	unmapped := make([]int, s.P) // partitions still needed per processor
	for i := range unmapped {
		unmapped[i] = s.F
	}
	remaining := cols

	// marks[j] collects the processors that marked column j this round.
	marks := make([][]int32, cols)
	best := make([]markCand, 0, s.F) // markLargest's top-list scratch
	s.LastOps = 0
	for remaining > 0 {
		s.LastOps += int64(s.P * cols) // one mark+map sweep over the matrix
		for j := range marks {
			marks[j] = marks[j][:0]
		}
		// Mark phase: processor i marks its unmapped[i] largest
		// unassigned entries.
		for i := 0; i < s.P; i++ {
			need := unmapped[i]
			if need == 0 {
				continue
			}
			markLargest(s.S[i], mp, need, int32(i), marks, best)
		}
		// Map phase: each marked unassigned column goes to the largest
		// marked entry.
		assigned := 0
		for j := 0; j < cols; j++ {
			if mp[j] >= 0 || len(marks[j]) == 0 {
				continue
			}
			best := marks[j][0]
			for _, i := range marks[j][1:] {
				if s.S[i][j] > s.S[best][j] {
					best = i
				}
			}
			mp[j] = best
			unmapped[best]--
			assigned++
		}
		remaining -= assigned
		if assigned == 0 {
			// Cannot happen when Σ unmapped == remaining, but guard
			// against a livelock regardless.
			for j := 0; j < cols && remaining > 0; j++ {
				if mp[j] >= 0 {
					continue
				}
				for i := 0; i < s.P; i++ {
					if unmapped[i] > 0 {
						mp[j] = int32(i)
						unmapped[i]--
						remaining--
						break
					}
				}
			}
		}
	}
	return mp, s.Objective(mp)
}

// markCand is one entry of markLargest's running top list: column j with
// similarity w.
type markCand struct {
	j int
	w int64
}

// markLargest records processor i's marks on the `need` largest entries of
// row among unassigned columns (ties resolved toward lower column
// numbers). It is O(cols·need) with need ≤ F, which beats sorting for the
// small F of practical interest. best is the caller's scratch for the
// running top list, with room for need entries.
func markLargest(row []int64, mp Mapping, need int, i int32, marks [][]int32, best []markCand) {
	best = best[:0]
	for j, w := range row {
		if mp[j] >= 0 || (len(best) == need && w <= best[need-1].w) {
			continue // assigned, or not above the full list's smallest entry
		}
		// Insert into the running top-`need` list.
		pos := len(best)
		for pos > 0 && best[pos-1].w < w {
			pos--
		}
		if len(best) < need {
			best = append(best, markCand{})
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = markCand{j, w}
	}
	for _, c := range best {
		marks[c.j] = append(marks[c.j], i)
	}
}
