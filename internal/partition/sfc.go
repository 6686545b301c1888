package partition

import (
	"math/bits"

	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/sfc"
)

// SFCPartitioner partitions the dual graph geometrically along a
// space-filling curve: element centroids are quantized onto the curve's
// lattice, sorted by curve key, and the sorted sequence is cut into k
// weighted chunks. Curve locality makes the chunks spatially compact, and
// the whole construction is O(n log n) — no eigen-solves.
//
// It runs one serial key pass, a stable radix sort and a serial cut, and
// is charged its work, as every partitioner is. Equal keys keep
// vertex-index order, so the curve order, every Assignment and the work
// depend only on the graph.
//
// The curve order depends only on the centroids, which are fixed for the
// lifetime of the dual graph (the paper's central invariant: the initial
// mesh never changes). An SFCPartitioner therefore sorts once and
// repartitions after every adaption step with one prefix-sum scan of the
// cached order under the updated Wcomp weights and a search on those
// sums, O(n + k·log n·log max(Wcomp)), which makes incremental
// repartitioning essentially free next to the remap itself. The cut is
// the exact minimum-bottleneck cut of that order (see Repartition), and
// nothing runs after it. It is the curve cache of the morton and hilbert
// Repartitioner, which charges the build (BuildOps) to its first
// Repartition. The cut's scratch lives here too, so a cut allocates only
// its Assignment; an SFCPartitioner is therefore not safe for concurrent
// use.
type SFCPartitioner struct {
	// order holds the dual vertices sorted by curve key.
	order []int32
	// prefix[i] is the Wcomp of order[:i] (n+1 entries); bounds, lowB and
	// highB hold k+1 chunk starts each, the probe being written and the
	// bisection's last failed and last passed probes: scratch every cut
	// reuses.
	prefix              []int64
	bounds, lowB, highB []int
}

// NewSFCWorkers builds the cached curve order of g's centroids (the
// O(n log n) part: key generation plus one sort).
//
// Deprecated: workers is ignored; it goes when the benchmark stops passing
// it.
func NewSFCWorkers(g *dual.Graph, c sfc.Curve, workers int) *SFCPartitioner {
	return &SFCPartitioner{
		order:  sortByKey(sfc.Keys(c, g.Centroid)),
		prefix: make([]int64, g.N+1),
	}
}

// BuildOps is the work of building the curve order, n key generations
// plus n·log2 n sort comparisons, all compute-bound.
func (s *SFCPartitioner) BuildOps() machine.Ops {
	n := len(s.order)
	return machine.Ops{Total: int64(n) + int64(n)*int64(log2ceil(n))}
}

// sortByKey returns the indices of keys ordered by key, equal keys in
// index order — the (key, index) order of the curve. It is a stable LSD
// radix sort in 8-bit digits that skips every digit all keys share. keys
// is used as scratch.
func sortByKey(keys []uint64) []int32 {
	n := len(keys)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	if n < 2 {
		return idx
	}
	var count [8][256]int // every digit's histogram, from one read of the keys
	for _, k := range keys {
		for d := range count {
			count[d][k>>(8*d)&0xff]++
		}
	}
	keys2, idx2 := make([]uint64, n), make([]int32, n)
	for d := range count {
		shift := 8 * d
		pos := &count[d]
		if pos[keys[0]>>shift&0xff] == n {
			continue // one bucket holds every key: the pass would be a copy
		}
		sum := 0
		for b, c := range pos {
			pos[b], sum = sum, sum+c
		}
		for i, k := range keys {
			b := k >> shift & 0xff
			keys2[pos[b]], idx2[pos[b]] = k, idx[i]
			pos[b]++
		}
		keys, keys2, idx, idx2 = keys2, keys, idx2, idx
	}
	return idx
}

// Repartition cuts the cached curve order into k contiguous chunks
// balancing the graph's *current* Wcomp. It is safe to call repeatedly as
// the weights evolve across adaption steps; the sorted order is reused.
//
// Balance guarantee: the cut is the contiguous cut of the curve order
// with the smallest Wmax (exact chains-on-chains partitioning), so no
// other way of cutting the curve into k chunks balances better, and
// Wmax < ⌈ΣW/k⌉ + max(Wcomp), i.e. Imbalance ≤ 1 + k·max(Wcomp)/ΣW.
func (s *SFCPartitioner) Repartition(g *dual.Graph, k int) Assignment {
	asg, _ := s.cut(g, k)
	return asg
}

// cut is Repartition with its work, compute-bound: the prefix-sum scan,
// the midpoint window scan and the fill, 3n ops, plus the bisection's
// search steps.
func (s *SFCPartitioner) cut(g *dual.Graph, k int) (Assignment, machine.Ops) {
	n := len(s.order)
	asg := make(Assignment, n)
	if k <= 1 || n == 0 {
		return asg, machine.Ops{Total: int64(n)}
	}
	k = min(k, n)
	bounds, steps := s.cutSerial(g, k)
	for p := 0; p < k; p++ {
		for _, v := range s.order[bounds[p]:bounds[p+1]] {
			asg[v] = int32(p)
		}
	}
	return asg, machine.Ops{Total: 3*int64(n) + steps}
}

// cutSerial returns the chunk starts of the minimum-bottleneck cut
// (bounds[p] is chunk p's first position on the curve, bounds[k] = n) and
// the binary-search steps it took. One scan builds the prefix sums of
// Wcomp in curve order; the midpoint window cut bounds the optimum from
// above and max(⌈ΣW/k⌉, max(Wcomp)) from below; bisection on the integer
// bottleneck finds the least B a greedy probe can fit into k chunks, and
// the probe at that B places the boundaries. A greedy boundary never
// moves left as b grows, so each probe searches for boundary p only
// between the last failed probe's and the last passed probe's
// (separator-index bounding, after Pinar & Aykanat); the last passed
// probe, when there is one, ran at B itself. The returned slice is
// scratch that the next cut overwrites.
func (s *SFCPartitioner) cutSerial(g *dual.Graph, k int) ([]int, int64) {
	n := len(s.order)
	prefix := s.prefix[:n+1]
	var maxW int64
	for i, v := range s.order {
		w := g.Wcomp[v]
		prefix[i+1] = prefix[i] + w
		maxW = max(maxW, w)
	}
	total := prefix[n]
	if cap(s.bounds) < k+1 {
		s.bounds, s.lowB, s.highB = make([]int, k+1), make([]int, k+1), make([]int, k+1)
	}
	bounds, low, high := s.bounds[:k+1], s.lowB[:k+1], s.highB[:k+1]
	bounds[0], bounds[k] = 0, n
	if total == 0 {
		for p := 1; p < k; p++ {
			bounds[p] = p * n / k
		}
		return bounds, 0
	}
	midpointCut(prefix, bounds)
	lo, hi := max(machine.CeilDiv(total, int64(k)), maxW), wmax(prefix, bounds)
	for p := range low {
		low[p], high[p] = 0, n
	}
	high[0] = 0
	var steps int64
	passed := false
	for lo < hi {
		b := lo + (hi-lo)/2
		ok, c := probe(prefix, bounds, low, high, b)
		steps += c
		if ok {
			hi, passed = b, true
			bounds, high = high, bounds
		} else {
			lo = b + 1
			bounds, low = low, bounds
		}
	}
	if !passed {
		_, c := probe(prefix, bounds, low, high, lo)
		steps += c
		high = bounds
	}
	repairBounds(high, k, n)
	return high, steps
}

// midpointCut writes the window cut into bounds: vertex i (in curve
// order) belongs to the one of k equal windows of the total weight that
// contains the midpoint of its weight interval [prefix[i], prefix[i+1]).
// Midpoints are increasing along the order, so chunks are contiguous, and
// a chunk's weight exceeds ΣW/k by at most max(Wcomp).
func midpointCut(prefix []int64, bounds []int) {
	n, k := len(prefix)-1, len(bounds)-1
	total := prefix[n]
	for p := 1; p < k; p++ {
		bounds[p] = -1
	}
	for i := range n {
		mid := float64(prefix[i]) + float64(prefix[i+1]-prefix[i])/2
		p := min(int(mid*float64(k)/float64(total)), k-1)
		// First vertex of each window starts that window's chunk.
		for q := p; q >= 1 && bounds[q] < 0; q-- {
			bounds[q] = i
		}
	}
	repairBounds(bounds, k, n)
}

// wmax returns the heaviest chunk of the cut bounds.
func wmax(prefix []int64, bounds []int) int64 {
	var w int64
	for p := 1; p < len(bounds); p++ {
		w = max(w, prefix[bounds[p]]-prefix[bounds[p-1]])
	}
	return w
}

// probe packs the curve greedily into chunks of weight ≤ b: each chunk
// ends at the last position whose prefix sum stays within b of its start,
// found by one binary search on prefix. low[p] and high[p] must bracket
// the end; the search runs between max(start, low[p]) and high[p] when
// that span's most steps are at most the whole span [start, n]'s fewest,
// and over the whole span otherwise, so no boundary costs more steps
// than an unbracketed search. It writes each chunk's end into
// bounds[1:] (n for the chunks left empty) and reports whether the k
// chunks reach the end of the curve, and the search steps it took. For
// b ≥ max(Wcomp) no chunk before the last non-empty one is empty, and the
// packing fits in k chunks exactly when some contiguous cut has Wmax ≤ b.
func probe(prefix []int64, bounds, low, high []int, b int64) (bool, int64) {
	n := len(prefix) - 1
	var steps int64
	s := 0
	for p := 1; p < len(bounds); p++ {
		lim := prefix[s] + b
		lo, hi := s, n // the answer lies in [lo, hi]: prefix[lo] ≤ lim
		// A span of m gaps takes between bits.Len(m+1)−1 and bits.Len(m)
		// steps.
		if l, h := max(s, low[p]), high[p]; bits.Len(uint(h-l)) < bits.Len(uint(n-s+1)) {
			lo, hi = l, h
		}
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if prefix[mid] <= lim {
				lo = mid
			} else {
				hi = mid - 1
			}
			steps++
		}
		bounds[p], s = lo, lo
	}
	return s == n, steps
}

// repairBounds finishes the raw windows: empty trailing windows inherit
// the next chunk's start, and every chunk is clamped to be non-empty
// (possible since k ≤ n). Every chunk ends up either one vertex or inside
// its raw range, so none outweighs both its raw weight and max(Wcomp).
func repairBounds(bounds []int, k, n int) {
	for p := k - 1; p >= 1; p-- {
		if bounds[p] < 0 {
			bounds[p] = bounds[p+1]
		}
	}
	for p := 1; p < k; p++ {
		if bounds[p] < bounds[p-1]+1 {
			bounds[p] = bounds[p-1] + 1
		}
	}
	for p := k - 1; p >= 1; p-- {
		if bounds[p] > bounds[p+1]-1 {
			bounds[p] = bounds[p+1] - 1
		}
	}
}

// log2ceil returns ceil(log2(n)) for n ≥ 1.
func log2ceil(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
