// Package remap implements the paper's processor-reassignment machinery:
// the similarity matrix S that measures how the remapping weights of new
// partitions are distributed over the processors, a greedy heuristic
// mapper (mark-and-map) that the framework's cycle runs, the optimal
// mapper it is measured against via maximally-weighted bipartite matching
// (Hungarian algorithm with F-fold processor duplication), and the
// analytic gain/cost model that decides whether a new partitioning is
// worth the data movement.
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

// Flow is one (source processor, destination processor) element set of a
// mapping: Elems elements move from Src to Dst (Src ≠ Dst).
type Flow struct {
	Src, Dst int32
	Elems    int64
}

// Flows returns the canonical flow list of a remap from owner to newOwner
// over p ranks, both indexed by dual vertex: every (Src, Dst) pair some
// vertex moves along, ascending by source then destination, carrying the
// Wremap weights of the vertices it moves. Wremap is the element count
// of each vertex's refinement tree, which moves whole with its root, so
// the list is the element sets the remap migrates, counted on the dual
// graph instead of the mesh. Vertices with zero weight and vertices that
// keep their owner are skipped. One pass counts into per-source lists of
// the destinations seen; a rank sends to few others, so the walk is
// short, and nothing is sized by the p² pairs that could carry a flow.
func Flows(owner, newOwner []int32, wremap []int64, p int) []Flow {
	head := make([]int32, p) // per source: its newest flow + 1, 0 for none
	var flows []Flow
	var next []int32 // per flow: the source's next flow + 1, 0 at the end
	for v, w := range wremap {
		src, dst := owner[v], newOwner[v]
		if w == 0 || src == dst {
			continue
		}
		k := head[src] - 1
		for k >= 0 && flows[k].Dst != dst {
			k = next[k] - 1
		}
		if k < 0 {
			k = int32(len(flows))
			flows = append(flows, Flow{Src: src, Dst: dst})
			next = append(next, head[src])
			head[src] = k + 1
		}
		flows[k].Elems += w
	}
	slices.SortFunc(flows, func(a, b Flow) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return flows
}

// MoveStats returns the data-movement statistics of a mapping: the
// element sets it moves, one Flow per (source processor, destination
// processor) pair with nonzero traffic in canonical (Src, Dst) order —
// partitions that share a destination combine (cf. the paper's Fig. 7,
// where two rather than three sets leave a processor whose two partitions
// land on the same destination) — and their total C = ΣS − 𝒥, the number
// of elements that must move. len(flows) is the cost model's N.
func (s *Similarity) MoveStats(mp Mapping) (flows []Flow, c int64) {
	// slot[dst] is the current row's flow to dst, or -1.
	slot := make([]int32, s.P)
	for i := range slot {
		slot[i] = -1
	}
	for i := 0; i < s.P; i++ {
		lo := len(flows)
		for _, e := range s.row(i) {
			dst := mp[e.col]
			if dst == int32(i) {
				continue
			}
			c += e.w
			if slot[dst] < 0 {
				slot[dst] = int32(len(flows))
				flows = append(flows, Flow{Src: int32(i), Dst: dst})
			}
			flows[slot[dst]].Elems += e.w
		}
		row := flows[lo:]
		for _, fl := range row {
			slot[fl.Dst] = -1
		}
		slices.SortFunc(row, func(a, b Flow) int { return cmp.Compare(a.Dst, b.Dst) })
	}
	return flows, c
}
