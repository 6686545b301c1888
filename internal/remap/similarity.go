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

	"plum/internal/machine"
)

// Similarity is the P×(P·F) similarity matrix: entry (i, j) is the sum of
// the Wremap weights of all dual-graph vertices that are common between
// processor i (old assignment) and new partition j. The sum of row i is
// the total remapping weight currently residing on processor i.
//
// Only the nonzero entries are stored, row-major (CSR): a processor
// shares weight with the few partitions that overlap its subdomain, so the
// matrix holds O(dual vertices) nonzeros however large P grows. Memory is
// O(nnz + P·F), the mapper's scratch included, and every method but
// Optimal runs over the nonzeros — no part of the mapper scales with P².
type Similarity struct {
	// P is the number of processors; F is the number of partitions per
	// processor (the paper's granularity factor).
	P, F int
	// rowStart has P+1 offsets: row i owns ents[rowStart[i]:rowStart[i+1]],
	// ascending by column, every weight positive.
	rowStart []int32
	ents     []entry
	// h is the mapper's scratch (Heuristic), kept with the matrix so a
	// warm Similarity maps without allocating.
	h mapper
}

// entry is one nonzero of a similarity row: column col holds weight w.
type entry struct {
	col int32
	w   int64
}

// Build constructs the similarity matrix from the old processor assignment
// and the new partitioning of the dual graph. oldProc[v] is the processor
// currently holding dual vertex v; newPart[v] is the new partition of v;
// wremap[v] is its redistribution weight, never negative. A negative
// oldProc[v] marks a vertex with no surviving holder (its rank crashed):
// it contributes no similarity to any processor, so the mapper treats it
// as guaranteed movement wherever it lands.
//
// Build is Rebuild over a fresh matrix and accumulator: the caller owns
// the result.
func Build(oldProc, newPart []int32, wremap []int64, p, f int) *Similarity {
	s := new(Similarity)
	s.Rebuild(new(machine.Pairs), oldProc, newPart, wremap, p, f)
	return s
}

// Rebuild refills s with the similarity matrix of its arguments (see
// Build), overwriting the matrix and the Mapping Heuristic returned last.
// Each vertex adds its weight to the pair (old owner, new part) of ps, and
// the pair list ps hands back, in canonical (Src, Dst) order, is the CSR
// itself: rows in order, columns ascending, every weight positive, since
// the vertices with no holder or no weight add nothing. It allocates
// O(nonzeros + P), never a P×P·F table, and nothing when s and ps are
// warm; ps is left empty.
func (s *Similarity) Rebuild(ps *machine.Pairs, oldProc, newPart []int32, wremap []int64, p, f int) {
	for v, o := range oldProc {
		if w := wremap[v]; o >= 0 && w != 0 {
			ps.Add(o, newPart[v], w)
		}
	}
	pairs := ps.Flows()
	s.P, s.F = p, f
	clear(fit(&s.rowStart, p+1))
	fit(&s.ents, len(pairs))
	for k, pr := range pairs {
		s.ents[k] = entry{col: pr.Dst, w: pr.Words}
		s.rowStart[pr.Src+1] = int32(k + 1)
	}
	for i := range p {
		s.rowStart[i+1] = max(s.rowStart[i+1], s.rowStart[i]) // an empty row ends where the last ended
	}
}

// fit reslices *s to n entries, reallocated if it holds fewer, and
// returns it; the entries keep whatever they held.
func fit[S ~[]E, E any](s *S, n int) S {
	if cap(*s) < n {
		*s = make(S, n)
	}
	*s = (*s)[:n]
	return *s
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
// in range and every processor exactly F partitions. It counts in the
// mapper's per-processor scratch.
func (s *Similarity) Validate(mp Mapping) error {
	if len(mp) != s.Cols() {
		return fmt.Errorf("remap: mapping has %d entries, want %d", len(mp), s.Cols())
	}
	cnt := fit(&s.h.unmapped, s.P)
	clear(cnt)
	for j, i := range mp {
		if i < 0 || int(i) >= s.P {
			return fmt.Errorf("remap: partition %d mapped to invalid processor %d", j, i)
		}
		cnt[i]++
	}
	for i, c := range cnt {
		if int(c) != s.F {
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

// Flows sums into ps the flow list of a remap from owner to newOwner,
// both indexed by dual vertex, and returns it in canonical (Src, Dst)
// order: every pair some vertex moves along, its count the Wremap weights
// of the vertices it moves. Wremap is the element count of each vertex's
// refinement tree, which moves whole with its root, so the list is the
// element sets the remap migrates, counted on the dual graph instead of
// the mesh, and each Flow's count is elements (see machine.Flow).
// Vertices with zero weight and vertices that keep their owner are
// skipped. The list is ps's (machine.Pairs.Flows): valid until ps's next
// Flows, and a warm ps allocates nothing.
func Flows(ps *machine.Pairs, owner, newOwner []int32, wremap []int64) []machine.Flow {
	for v, w := range wremap {
		if src, dst := owner[v], newOwner[v]; w != 0 && src != dst {
			ps.Add(src, dst, w)
		}
	}
	return ps.Flows()
}

// MoveStats returns the data-movement statistics of a mapping: the
// element sets it moves, one Flow of elements per (source processor,
// destination processor) pair with nonzero traffic in canonical (Src, Dst)
// order — partitions that share a destination combine (cf. the paper's
// Fig. 7, where two rather than three sets leave a processor whose two
// partitions land on the same destination) — and their total C = ΣS − 𝒥,
// the number of elements that must move. len(flows) is the cost model's N.
func (s *Similarity) MoveStats(mp Mapping) (flows []machine.Flow, c int64) {
	var ps machine.Pairs
	for i := range int32(s.P) {
		for _, e := range s.row(int(i)) {
			if dst := mp[e.col]; dst != i {
				ps.Add(i, dst, e.w)
				c += e.w
			}
		}
	}
	return ps.Flows(), c
}
