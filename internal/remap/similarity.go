// Package remap implements the paper's processor-reassignment machinery:
// the similarity matrix S that measures how the remapping weights of new
// partitions are distributed over the processors, a greedy heuristic
// mapper (mark-and-map), an optimal mapper via maximally-weighted
// bipartite matching (Hungarian algorithm with F-fold processor
// duplication), and the analytic gain/cost model that decides whether a
// new partitioning is worth the data movement.
package remap

import "fmt"

// Similarity is the P×(P·F) similarity matrix: entry S[i][j] is the sum of
// the Wremap weights of all dual-graph vertices that are common between
// processor i (old assignment) and new partition j. The sum of row i is
// the total remapping weight currently residing on processor i.
type Similarity struct {
	// P is the number of processors; F is the number of partitions per
	// processor (the paper's granularity factor).
	P, F int
	// S holds the matrix, S[i][j] ≥ 0.
	S [][]int64

	// LastOps records the inner-loop operation count of the most recent
	// Heuristic or Optimal call, for machine-model timing of the
	// reassignment phase (Figs. 9 and 10a).
	LastOps int64
}

// NewSimilarity returns a zero P×(P·F) similarity matrix.
func NewSimilarity(p, f int) *Similarity {
	s := &Similarity{P: p, F: f, S: make([][]int64, p)}
	for i := range s.S {
		s.S[i] = make([]int64, p*f)
	}
	return s
}

// Build constructs the similarity matrix from the old processor assignment
// and the new partitioning of the dual graph. oldProc[v] is the processor
// currently holding dual vertex v; newPart[v] is the new partition of v;
// wremap[v] is its redistribution weight. A negative oldProc[v] marks a
// vertex with no surviving holder (its rank crashed): it contributes no
// similarity to any processor, so the mapper treats it as guaranteed
// movement wherever it lands.
func Build(oldProc, newPart []int32, wremap []int64, p, f int) *Similarity {
	s := NewSimilarity(p, f)
	for v := range oldProc {
		if oldProc[v] < 0 {
			continue
		}
		s.S[oldProc[v]][newPart[v]] += wremap[v]
	}
	return s
}

// Cols returns the number of columns, P·F.
func (s *Similarity) Cols() int { return s.P * s.F }

// Total returns the sum of all entries (the total remapping weight of the
// mesh).
func (s *Similarity) Total() int64 {
	var t int64
	for _, row := range s.S {
		for _, x := range row {
			t += x
		}
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
	for j, i := range mp {
		obj += s.S[i][j]
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
	pairs := make(map[[2]int32]bool)
	for i := 0; i < s.P; i++ {
		for j := 0; j < s.Cols(); j++ {
			w := s.S[i][j]
			if w == 0 {
				continue
			}
			dst := mp[j]
			if int32(i) == dst {
				continue
			}
			c += w
			pairs[[2]int32{int32(i), dst}] = true
		}
	}
	return c, len(pairs)
}
