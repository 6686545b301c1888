// Package remap implements the paper's processor-reassignment machinery:
// the similarity matrix S that measures how the remapping weights of new
// partitions are distributed over the processors, a greedy heuristic
// mapper (mark-and-map), an optimal mapper via maximally-weighted
// bipartite matching (Hungarian algorithm with F-fold processor
// duplication), and the analytic gain/cost model that decides whether a
// new partitioning is worth the data movement.
package remap

import (
	"cmp"
	"fmt"
	"slices"
)

// Similarity is the P×(P·F) similarity matrix: entry (i, j) is the sum of
// the Wremap weights of all dual-graph vertices that are common between
// processor i (old assignment) and new partition j. The sum of row i is
// the total remapping weight currently residing on processor i.
//
// Only the nonzero entries are stored, row-major (CSR): a processor
// shares weight with the few partitions that overlap its subdomain, so the
// matrix holds O(dual vertices) nonzeros however large P grows. Memory is
// O(nnz + P), and every method but Optimal runs over the nonzeros — no
// part of the mapper scales with P².
type Similarity struct {
	// P is the number of processors; F is the number of partitions per
	// processor (the paper's granularity factor).
	P, F int
	// rowStart has P+1 offsets: row i owns ents[rowStart[i]:rowStart[i+1]],
	// ascending by column, every weight positive.
	rowStart []int32
	ents     []entry

	// LastOps records the inner-loop operation count of the most recent
	// Heuristic or Optimal call, for machine-model timing of the
	// reassignment phase (Figs. 9 and 10a).
	LastOps int64
}

// entry is one nonzero of a similarity row: column col holds weight w.
type entry struct {
	col int32
	w   int64
}

// Build constructs the similarity matrix from the old processor assignment
// and the new partitioning of the dual graph. oldProc[v] is the processor
// currently holding dual vertex v; newPart[v] is the new partition of v;
// wremap[v] is its redistribution weight. A negative oldProc[v] marks a
// vertex with no surviving holder (its rank crashed): it contributes no
// similarity to any processor, so the mapper treats it as guaranteed
// movement wherever it lands.
//
// The vertices are bucketed by old owner and each row is summed through
// one column-indexed scratch that the row's own entries clear again, so
// Build allocates O(vertices + P·F), never a P×P·F table.
func Build(oldProc, newPart []int32, wremap []int64, p, f int) *Similarity {
	// Counting sort of the vertices by old owner.
	start := make([]int32, p+1)
	for _, o := range oldProc {
		if o >= 0 {
			start[o+1]++
		}
	}
	for i := 0; i < p; i++ {
		start[i+1] += start[i]
	}
	byOwner := make([]int32, start[p])
	next := slices.Clone(start[:p])
	for v, o := range oldProc {
		if o >= 0 {
			byOwner[next[o]] = int32(v)
			next[o]++
		}
	}
	s := &Similarity{P: p, F: f, rowStart: make([]int32, p+1)}
	slot := make([]int32, p*f) // a column's entry in the row being built, or -1
	for j := range slot {
		slot[j] = -1
	}
	for i := 0; i < p; i++ {
		lo := len(s.ents)
		for _, v := range byOwner[start[i]:start[i+1]] {
			j := newPart[v]
			if slot[j] < 0 {
				slot[j] = int32(len(s.ents))
				s.ents = append(s.ents, entry{col: j})
			}
			s.ents[slot[j]].w += wremap[v]
		}
		row := s.ents[lo:]
		for _, e := range row {
			slot[e.col] = -1
		}
		row = slices.DeleteFunc(row, func(e entry) bool { return e.w == 0 })
		slices.SortFunc(row, func(a, b entry) int { return cmp.Compare(a.col, b.col) })
		s.ents = s.ents[:lo+len(row)]
		s.rowStart[i+1] = int32(len(s.ents))
	}
	return s
}

// row returns processor i's nonzero entries in column order.
func (s *Similarity) row(i int) []entry { return s.ents[s.rowStart[i]:s.rowStart[i+1]] }

// At returns entry (i, j).
func (s *Similarity) At(i, j int) int64 {
	row := s.row(i)
	if k, ok := slices.BinarySearchFunc(row, int32(j), func(e entry, col int32) int {
		return cmp.Compare(e.col, col)
	}); ok {
		return row[k].w
	}
	return 0
}

// Cols returns the number of columns, P·F.
func (s *Similarity) Cols() int { return s.P * s.F }

// Total returns the sum of all entries (the total remapping weight of the
// mesh).
func (s *Similarity) Total() int64 {
	var t int64
	for _, e := range s.ents {
		t += e.w
	}
	return t
}

// Mapping assigns each new partition to a processor: Mapping[j] is the
// processor that receives partition j. A valid mapping gives every
// processor exactly F partitions.
type Mapping []int32

// Validate checks that the mapping assigns every partition to a processor
// in range and every processor exactly F partitions.
func (s *Similarity) Validate(mp Mapping) error {
	if len(mp) != s.Cols() {
		return fmt.Errorf("remap: mapping has %d entries, want %d", len(mp), s.Cols())
	}
	cnt := make([]int, s.P)
	for j, i := range mp {
		if i < 0 || int(i) >= s.P {
			return fmt.Errorf("remap: partition %d mapped to invalid processor %d", j, i)
		}
		cnt[i]++
	}
	for i, c := range cnt {
		if c != s.F {
			return fmt.Errorf("remap: processor %d assigned %d partitions, want F=%d", i, c, s.F)
		}
	}
	return nil
}

// Objective returns the paper's objective function 𝒥 = Σ_j S[mp[j]][j]:
// the total remapping weight that does not move.
func (s *Similarity) Objective(mp Mapping) int64 {
	var obj int64
	for i := 0; i < s.P; i++ {
		for _, e := range s.row(i) {
			if mp[e.col] == int32(i) {
				obj += e.w
			}
		}
	}
	return obj
}

// MoveStats returns the data-movement statistics of a mapping:
// C = ΣS − 𝒥 is the total number of elements that must move, and N is the
// number of element sets moved — one per (source processor, destination
// processor) pair with nonzero traffic, combining partitions that share a
// destination (cf. the paper's Fig. 7, where two rather than three sets
// leave a processor whose two partitions land on the same destination).
func (s *Similarity) MoveStats(mp Mapping) (c int64, n int) {
	// sentBy[dst] = i+1 once source i has been seen sending to dst.
	sentBy := make([]int32, s.P)
	for i := 0; i < s.P; i++ {
		for _, e := range s.row(i) {
			dst := mp[e.col]
			if dst == int32(i) {
				continue
			}
			c += e.w
			if sentBy[dst] != int32(i)+1 {
				sentBy[dst] = int32(i) + 1
				n++
			}
		}
	}
	return c, n
}
