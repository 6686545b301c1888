package remap

import "slices"

// Heuristic computes a processor assignment with the paper's greedy
// mark-and-map algorithm and returns the mapping and its objective 𝒥.
//
// The algorithm repeats two steps until every partition is assigned:
//
//	mark: every processor that still needs partitions marks its largest
//	      unassigned similarity entries (as many as it still needs, ties
//	      toward lower columns; zero entries, lowest column first, once
//	      its nonzeros run out);
//	map:  every unassigned partition with at least one mark is assigned
//	      to the processor holding the largest marked entry in its
//	      column (ties toward the lower processor).
//
// The paper proves the resulting data-movement cost is never more than
// twice the optimal cost, and measures it within 3% of optimal at roughly
// 1% of the optimal algorithm's runtime.
//
// The rounds run over the nonzeros only. A processor that still needs
// partitions scans its own row for its largest unassigned entries — every
// column it marks is assigned by the end of the round, to it or to a
// larger mark, so a row runs out after at most as many scans as it has
// entries and is never read again. Zero-weight marks come off a
// next-unassigned-column skip list, and the map step visits only the
// columns the round touched. LastOps counts the entries the rounds
// examine: at most the row's nonzeros plus its zero marks per processor
// and round, against the P·F cells per processor and round of a matrix
// sweep, and nothing at all for a processor that is done.
func (s *Similarity) Heuristic() (Mapping, int64) {
	cols := s.Cols()
	mp := make(Mapping, cols)
	for j := range mp {
		mp[j] = -1
	}
	// rows[i] is row i while it still has unassigned columns; top is the
	// running list of a scan's largest entries.
	rows := make([][]entry, s.P)
	for i := range rows {
		rows[i] = s.row(i)
	}
	top := make([]entry, 0, s.F)
	unmapped := make([]int32, s.P) // partitions still needed per processor
	active := make([]int32, s.P)   // processors with unmapped > 0, ascending
	for i := range active {
		unmapped[i] = int32(s.F)
		active[i] = int32(i)
	}
	// skip[j] is a column ≥ j at or before the next unassigned one (cols
	// when none is left); nextFree follows and compresses the chain.
	skip := make([]int32, cols+1)
	for j := range skip {
		skip[j] = int32(j)
	}
	nextFree := func(j int32) int32 {
		r := j
		for skip[r] != r {
			r = skip[r]
		}
		for skip[j] != r {
			j, skip[j] = skip[j], r
		}
		return r
	}
	// best[j] is the winning mark of column j in round markedIn[j]−1: the
	// first processor to mark it, replaced only by a strictly larger
	// weight. Processors mark in ascending order, so ties stay with the
	// lowest. markedBy[j] = i+1 keeps processor i's zero marks off the
	// columns it marked this round.
	type mark struct {
		proc int32
		w    int64
	}
	best := make([]mark, cols)
	markedIn := make([]int32, cols)
	markedBy := make([]int32, cols)
	var touched []int32
	var round int32
	place := func(i, j int32, w int64) {
		markedBy[j] = i + 1
		if markedIn[j] != round {
			markedIn[j] = round
			best[j] = mark{i, w}
			touched = append(touched, j)
		} else if w > best[j].w {
			best[j] = mark{i, w}
		}
	}

	s.LastOps = 0
	for len(active) > 0 {
		round++
		touched = touched[:0]
		for _, i := range active {
			need := int(unmapped[i])
			top = top[:0]
			s.LastOps += int64(len(rows[i]))
			for _, e := range rows[i] {
				if mp[e.col] >= 0 || len(top) == need && e.w <= top[need-1].w {
					continue // assigned, or not above the full list's smallest entry
				}
				// Insert behind every entry at least as large, so ties
				// stay with the lower column.
				pos := len(top)
				for pos > 0 && top[pos-1].w < e.w {
					pos--
				}
				if len(top) < need {
					top = append(top, entry{})
				}
				copy(top[pos+1:], top[pos:])
				top[pos] = e
			}
			if len(top) == 0 {
				rows[i] = nil
			}
			for _, e := range top {
				place(i, e.col, e.w)
			}
			need -= len(top)
			for j := nextFree(0); need > 0; j = nextFree(j + 1) {
				if markedBy[j] != i+1 {
					s.LastOps++
					place(i, j, 0)
					need--
				}
			}
		}
		for _, j := range touched {
			mp[j] = best[j].proc
			unmapped[mp[j]]--
			skip[j] = j + 1
		}
		active = slices.DeleteFunc(active, func(i int32) bool { return unmapped[i] == 0 })
	}
	return mp, s.Objective(mp)
}
