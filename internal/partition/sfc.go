package partition

import (
	"sort"

	"plum/internal/chunk"
	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/psort"
	"plum/internal/sfc"
)

// repartSerialCutoff is the vertex count below which Repartition's chunked
// worker pool costs more than it recovers and the serial scan is used.
const repartSerialCutoff = 1 << 13

// SFCPartitioner partitions the dual graph geometrically along a
// space-filling curve: element centroids are quantized onto the curve's
// lattice, sorted by curve key, and the sorted sequence is cut into k
// weighted chunks. Curve locality makes the chunks spatially compact, and
// the whole construction is O(n log n) — no eigen-solves.
//
// Every phase is parallel: key generation (sfc.KeysWorkers), the key sort
// (psort's sample sort), and the weighted chunk cut (chunked prefix sums).
// Equal keys are tie-broken by vertex index, so the curve order — and
// therefore every Assignment — is byte-identical at any worker count.
//
// The curve order depends only on the centroids, which are fixed for the
// lifetime of the dual graph (the paper's central invariant: the initial
// mesh never changes). An SFCPartitioner therefore sorts once and
// repartitions after every adaption step in O(n) — a prefix-sum scan over
// the cached order with the updated Wcomp weights — which makes
// incremental repartitioning essentially free next to the remap itself.
type SFCPartitioner struct {
	// Curve is the space-filling curve used for ordering.
	Curve sfc.Curve
	// Workers is the resolved worker count used by the parallel phases
	// (≥ 1; construction resolves 0 to GOMAXPROCS).
	Workers int
	// order holds the dual vertices sorted by curve key.
	order []int32
	// LastOps records the abstract operation count of the most recent
	// call (NewSFCWorkers or Repartition) summed over all workers, for
	// machine-model cost accounting, mirroring remap.Similarity.LastOps.
	LastOps int64
	// LastCritOps is the critical-path share of LastOps: the op count of
	// the slowest worker plus the serial merge terms. machine.Model
	// charges parallel time from this figure; for Workers == 1 it equals
	// LastOps.
	LastCritOps int64
}

// NewSFCWorkers builds the cached curve order of g's centroids (the
// O(n log n) part: key generation plus one sample sort) with the given
// worker knob (≤ 0 = GOMAXPROCS). The curve order is identical at every
// worker count.
func NewSFCWorkers(g *dual.Graph, c sfc.Curve, workers int) *SFCPartitioner {
	w := chunk.Workers(workers)
	s := &SFCPartitioner{Curve: c, Workers: w, order: make([]int32, g.N)}
	keys := sfc.KeysWorkers(c, g.Centroid, w)
	for i := range s.order {
		s.order[i] = int32(i)
	}
	psort.SortIndexByKey(keys, s.order, w)

	// n key generations + n log2 n comparisons, for model timing. The
	// critical path divides each phase by the worker count that phase
	// *actually* ran with — both fall back to serial below their size
	// cutoffs, and charging the knob instead would undercount the work a
	// small graph really costs. The sample-sort's serial splitter
	// selection is O(w² · oversample · log) — noise at any realistic
	// n/w — and is folded into the +w term.
	n := int64(g.N)
	logn := int64(log2ceil(g.N))
	kw := int64(sfc.EffectiveKeyWorkers(g.N, w))
	sw := int64(psort.SortWorkers(g.N, w))
	s.LastOps = n + n*logn
	s.LastCritOps = critClamp(machine.CeilDiv(n, kw)+machine.CeilDiv(n*logn, sw)+sw-1, s.LastOps)
	return s
}

// critClamp caps a critical-path estimate at the total: the serial merge
// terms can otherwise nudge it past the total at tiny n or w=1, and no
// schedule is slower than running everything serially.
func critClamp(crit, total int64) int64 {
	if crit > total {
		return total
	}
	return crit
}

// Repartition cuts the cached curve order into k chunks balancing the
// graph's *current* Wcomp, in O(n) work and O(n/Workers) critical path.
// It is safe to call repeatedly as the weights evolve across adaption
// steps; the sorted order is reused. The cut is identical at every worker
// count: the chunked scan reproduces the serial prefix-sum windows
// exactly.
//
// Balance guarantee (before refinement): each chunk receives the vertices
// whose weighted-midpoint prefix falls in one of k equal windows of the
// total weight, so a chunk's weight exceeds ΣW/k by at most max(Wcomp) —
// i.e. Imbalance ≤ 1 + k·max(Wcomp)/ΣW. A subsequent FM pass (see sfcCounted)
// reduces the cut while keeping every part within the larger of that
// bound and its own 3% tolerance: Wmax ≤ max(ΣW/k + max(Wcomp), 1.03·ΣW/k).
func (s *SFCPartitioner) Repartition(g *dual.Graph, k int) Assignment {
	n := len(s.order)
	asg := make(Assignment, n)
	if k <= 1 || n == 0 {
		s.LastOps = int64(n)
		s.LastCritOps = int64(n)
		return asg
	}
	if k > n {
		k = n
	}
	w := s.Workers
	if w < 1 {
		w = chunk.Workers(w)
	}

	// Resolve the worker count the cut actually runs with; the serial
	// fallback must also be *charged* serially.
	if w > 1 && n < repartSerialCutoff {
		w = 1
	}
	var bounds []int
	if w <= 1 {
		bounds = s.cutSerial(g, k)
	} else {
		bounds = s.cutParallel(g, k, w)
	}
	repairBounds(bounds, k, n)

	// Fill: every vertex between consecutive bounds belongs to that part.
	// Chunked over the order; each index is written exactly once.
	chunk.For(n, w, func(_, lo, hi int) {
		p := sort.Search(k, func(p int) bool { return bounds[p+1] > lo })
		for i := lo; i < hi; i++ {
			for i >= bounds[p+1] {
				p++
			}
			asg[s.order[i]] = int32(p)
		}
	})

	// Weight-sum scan + window scan + fill, for model timing.
	s.LastOps = 3 * int64(n)
	s.LastCritOps = critClamp(machine.CeilDiv(3*int64(n), int64(w))+int64(k)+int64(w), s.LastOps)
	return asg
}

// windowOf returns the weight window of a vertex whose interval starts
// at prefix with weight wv: the window containing the interval midpoint.
// This is THE expression both cut paths share — the worker-count
// invariance of Repartition rests on the parallel replay performing
// bit-identical float64 arithmetic to the serial scan, so any change here
// changes both paths together.
func windowOf(prefix, wv, total int64, k int) int {
	mid := float64(prefix) + float64(wv)/2
	p := int(mid * float64(k) / float64(total))
	if p > k-1 {
		return k - 1
	}
	return p
}

// equalCountBounds fills the all-weights-zero cut: equal-count chunks.
func equalCountBounds(bounds []int, k, n int) {
	for p := 1; p < k; p++ {
		bounds[p] = p * n / k
	}
}

// cutSerial computes the raw window boundaries with a single prefix-sum
// scan — the reference semantics cutParallel must reproduce exactly.
func (s *SFCPartitioner) cutSerial(g *dual.Graph, k int) []int {
	n := len(s.order)
	var total int64
	for _, w := range g.Wcomp {
		total += w
	}
	bounds := make([]int, k+1)
	bounds[k] = n
	if total == 0 {
		equalCountBounds(bounds, k, n)
		return bounds
	}
	for p := 1; p < k; p++ {
		bounds[p] = -1
	}
	// Chunk boundaries: vertex i (in curve order) belongs to the window
	// containing the midpoint of its weight interval [prefix, prefix+w).
	// Midpoints are increasing along the order, so chunks are contiguous.
	var prefix int64
	for i, v := range s.order {
		p := windowOf(prefix, g.Wcomp[v], total, k)
		// First vertex of each window starts that window's chunk.
		for q := p; q >= 1 && bounds[q] < 0; q-- {
			bounds[q] = i
		}
		prefix += g.Wcomp[v]
	}
	return bounds
}

// cutParallel computes the same boundaries as cutSerial with a two-pass
// chunked prefix sum: pass one accumulates per-chunk weight totals, a
// short serial scan turns them into chunk offsets, and pass two replays
// each chunk with its exact global prefix, recording the first vertex
// landing in each weight window. Because every per-vertex computation
// sees the same int64 prefix and performs the same float64 arithmetic as
// the serial scan, the resulting windows are bit-identical.
func (s *SFCPartitioner) cutParallel(g *dual.Graph, k, w int) []int {
	n := len(s.order)
	nc := chunk.Count(n, w)

	// Pass 1: per-chunk weight sums → exclusive chunk offsets.
	chunkSum := make([]int64, nc)
	chunk.For(n, w, func(c, lo, hi int) {
		var sum int64
		for _, v := range s.order[lo:hi] {
			sum += g.Wcomp[v]
		}
		chunkSum[c] = sum
	})
	offset := make([]int64, nc)
	var total int64
	for c, sum := range chunkSum {
		offset[c] = total
		total += sum
	}

	bounds := make([]int, k+1)
	bounds[k] = n
	if total == 0 {
		equalCountBounds(bounds, k, n)
		return bounds
	}

	// Pass 2: window-first scan per chunk. firsts[chunk][p] is the first
	// in-chunk curve position whose weight midpoint lands in window p, or
	// -1. Windows are nondecreasing along the order, so only the first
	// hit per window matters.
	firsts := make([][]int32, nc)
	chunk.For(n, w, func(c, lo, hi int) {
		fw := make([]int32, k)
		for p := range fw {
			fw[p] = -1
		}
		prefix := offset[c]
		for i := lo; i < hi; i++ {
			v := s.order[i]
			p := windowOf(prefix, g.Wcomp[v], total, k)
			if fw[p] < 0 {
				fw[p] = int32(i)
			}
			prefix += g.Wcomp[v]
		}
		firsts[c] = fw
	})

	// Merge: the global first of window p is the earliest chunk's first
	// (chunks cover increasing index ranges). The serial scan's backfill
	// assigns bounds[q] the first vertex whose window is ≥ q, i.e. the
	// minimum first over all windows ≥ q — a reverse running minimum.
	fw := make([]int32, k)
	for p := range fw {
		fw[p] = -1
	}
	for _, cf := range firsts {
		for p, i := range cf {
			if fw[p] < 0 && i >= 0 {
				fw[p] = i
			}
		}
	}
	carry := int32(-1)
	for p := k - 1; p >= 1; p-- {
		if fw[p] >= 0 && (carry < 0 || fw[p] < carry) {
			carry = fw[p]
		}
		bounds[p] = int(carry)
	}
	return bounds
}

// repairBounds finishes the raw windows: empty trailing windows inherit
// the next chunk's start, and every chunk is clamped to be non-empty
// (possible since k ≤ n).
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

// sfcCounted is the one-shot pipeline behind Partition: build the curve
// order, cut it, and smooth the chunk boundaries with the configured
// refiner (curve cuts are jagged at the element scale; one cheap boundary
// pass recovers most of the cut quality). It reports total and
// critical-path op counts: sort + incremental cut (compute-bound) plus the
// smoothing pass (memory-bound, tracked in the Mem share).
func sfcCounted(g *dual.Graph, k int, c sfc.Curve, opt Options) (Assignment, machine.Ops) {
	s := NewSFCWorkers(g, c, opt.Workers)
	ops := machine.Ops{Total: s.LastOps, Crit: s.LastCritOps}
	asg := s.Repartition(g, k)
	ops.Total += s.LastOps
	ops.Crit += s.LastCritOps
	ops.Add(opt.refinerFor(g.N).Refine(g, asg, k, 2))
	return asg, ops
}

// log2ceil returns ceil(log2(n)) for n ≥ 1.
func log2ceil(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
