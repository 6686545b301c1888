package remap

import "slices"

// Heuristic computes a processor assignment with the paper's greedy
// mark-and-map algorithm and returns the mapping, its objective 𝒥, and
// the inner-loop operation count that times the reassignment phase
// (Figs. 9 and 10a).
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
// entries and is never read again. A processor whose row has run out is
// exhausted: it can only mark zeros on the lowest free columns, so every
// exhausted processor marks a prefix of the same free list, and the lower
// one wins each zero tie. One whose need the lower ones already reach
// this round changes nothing and is never visited: a max tree over the
// exhausted needs hands the round, in ascending order, only the
// processors that need more than every lower one, and each marks just
// the free columns beyond the lower ones' reach. Zero marks come off a
// next-unassigned-column skip list, and the map step visits only the
// columns the round touched. The op count is the row entries scanned plus
// the zero marks placed; like the skip list's, the tree's walk is
// bookkeeping it leaves out, and every processor it visits places at
// least one mark. Every column the walk marks is assigned that round, so
// the walk's share of the count is at most P·F over the whole mapping,
// where Z exhausted processors each marking their whole need would place
// up to Z·F marks every round.
//
// mp is s's own scratch, as is every array the mapper works in: it stays
// valid until s's next Heuristic or Rebuild, and a warm s maps without
// allocating.
func (s *Similarity) Heuristic() (mp Mapping, objective, ops int64) {
	cols := s.Cols()
	h := &s.h
	mp = fit(&h.mp, cols)
	for j := range mp {
		mp[j] = -1
	}
	// rows[i] is row i while it still has unassigned columns; top is the
	// running list of a scan's largest entries.
	rows := fit(&h.rows, s.P)
	for i := range rows {
		rows[i] = s.row(i)
	}
	top := fit(&h.top, s.F)[:0]
	unmapped := fit(&h.unmapped, s.P) // partitions still needed per processor
	active := fit(&h.active, s.P)     // processors with nonzeros left and unmapped > 0, ascending
	for i := range active {
		unmapped[i] = int32(s.F)
		active[i] = int32(i)
	}
	// exhausted holds processor i's need once its row has run out (0 while
	// the row lasts and once it is done) in a max tree, so the walk finds
	// the next exhausted processor that needs more than the lower ones
	// reach without visiting the ones in between.
	exhausted := h.exhausted.reset(s.P)
	// skip[j] is a column ≥ j at or before the next unassigned one (cols
	// when none is left); nextFree follows and compresses the chain.
	skip := fit(&h.skip, cols+1)
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
	// largest weight, ties to the lower processor, whatever order the
	// marks arrive in. markedBy[j] = i+1 keeps processor i's zero marks
	// off the columns it marked this round.
	best, markedIn, markedBy := fit(&h.best, cols), fit(&h.markedIn, cols), fit(&h.markedBy, cols)
	clear(markedIn)
	clear(markedBy)
	touched := fit(&h.touched, cols)[:0] // the columns a round marked
	var round int32
	place := func(i, j int32, w int64) {
		markedBy[j] = i + 1
		if markedIn[j] != round {
			markedIn[j] = round
			best[j] = mark{i, w}
			touched = append(touched, j)
		} else if w > best[j].w || w == best[j].w && i < best[j].proc {
			best[j] = mark{i, w}
		}
	}

	for len(active) > 0 || exhausted.max() > 0 {
		round++
		touched = touched[:0]
		for _, i := range active {
			need := int(unmapped[i])
			top = top[:0]
			ops += int64(len(rows[i]))
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
				rows[i] = nil // exhausted: it marks in the walk below
				exhausted.set(i, int32(need))
				continue
			}
			for _, e := range top {
				place(i, e.col, e.w)
			}
			need -= len(top)
			for j := nextFree(0); need > 0; j = nextFree(j + 1) {
				if markedBy[j] != i+1 {
					ops++
					place(i, j, 0)
					need--
				}
			}
		}
		// The walk: each exhausted processor that needs more than the
		// lower ones reach marks the free columns at positions [reach,
		// unmapped[i]); every other one would lose all its zero ties.
		var reach int32
		var j int32
		for i := exhausted.firstAbove(0, 0); i >= 0; i = exhausted.firstAbove(i+1, reach) {
			for ; reach < unmapped[i]; reach++ {
				j = nextFree(j)
				ops++
				place(i, j, 0)
				j++
			}
		}
		for _, j := range touched {
			i := best[j].proc
			mp[j] = i
			unmapped[i]--
			skip[j] = j + 1
			if rows[i] == nil {
				exhausted.set(i, unmapped[i])
			}
		}
		active = slices.DeleteFunc(active, func(i int32) bool { return unmapped[i] == 0 || rows[i] == nil })
	}
	return mp, s.Objective(mp), ops
}

// mapper is Heuristic's scratch, kept with the matrix: the mapping, the
// rows still scanned, a scan's top entries, each processor's need (the
// partitions it has, for Validate), the active processors, the exhausted
// ones' max tree, the free-column skip list, and each column's winning
// mark, its round, its marker and the columns a round touched.
type mapper struct {
	mp                 Mapping
	rows               [][]entry
	top                []entry
	unmapped, active   []int32
	exhausted          maxTree
	skip               []int32
	best               []mark
	markedIn, markedBy []int32
	touched            []int32
}

// mark is a processor's mark on a column, with the weight it marked.
type mark struct {
	proc int32
	w    int64
}

// maxTree is a binary max tree over the processors' needs, with the
// leaves padded to a power of two.
type maxTree []int32

// reset resizes *t to n processors with every need zero and returns it.
func (t *maxTree) reset(n int) maxTree {
	size := 1
	for size < n {
		size *= 2
	}
	clear(fit(t, 2*size))
	return *t
}

// max returns the largest need.
func (t maxTree) max() int32 { return t[1] }

// set stores processor i's need and updates its ancestors.
func (t maxTree) set(i, need int32) {
	v := len(t)/2 + int(i)
	t[v] = need
	for v > 1 {
		v >>= 1
		t[v] = max(t[2*v], t[2*v+1])
	}
}

// firstAbove returns the lowest processor ≥ x whose need exceeds r, or
// −1: it climbs past the subtrees that stay within r, then descends.
func (t maxTree) firstAbove(x, r int32) int32 {
	n := len(t) / 2
	if int(x) >= n {
		return -1
	}
	v := n + int(x)
	for t[v] <= r {
		for v&1 == 1 {
			if v == 1 {
				return -1
			}
			v >>= 1
		}
		v++
	}
	for v < n {
		v *= 2
		if t[v] <= r {
			v++
		}
	}
	return int32(v - n)
}
