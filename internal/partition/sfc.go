package partition

import (
	"plum/internal/chunk"
	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/sfc"
)

// The serial cutoffs of the parallel SFC pipeline the model charges (see
// SFCPartitioner): below them a phase is charged serially.
const (
	// keysSerialCutoff is the point count from which key generation is
	// charged across the workers.
	keysSerialCutoff = 1 << 12
	// sortSerialCutoff is the pair count from which the sample sort is
	// charged across the workers, at no fewer than sortSerialCutoff/8
	// pairs per worker.
	sortSerialCutoff = 1 << 13
	// repartSerialCutoff is the vertex count from which Repartition's
	// weight scans are charged across the workers.
	repartSerialCutoff = 1 << 13
)

// SFCPartitioner partitions the dual graph geometrically along a
// space-filling curve: element centroids are quantized onto the curve's
// lattice, sorted by curve key, and the sorted sequence is cut into k
// weighted chunks. Curve locality makes the chunks spatially compact, and
// the whole construction is O(n log n) — no eigen-solves.
//
// The host runs one serial key pass, a stable radix sort and a serial
// cut. The model charges the parallel pipeline of Borrell et al. instead,
// over Workers: chunked key generation, a sample sort and a chunked
// weighted cut, each charged serially below its size cutoff. Equal keys
// keep vertex-index order, so the curve order, every Assignment and every
// charge depend only on the graph and the worker knob.
//
// The curve order depends only on the centroids, which are fixed for the
// lifetime of the dual graph (the paper's central invariant: the initial
// mesh never changes). An SFCPartitioner therefore sorts once and
// repartitions after every adaption step in O(n) — a prefix-sum scan over
// the cached order with the updated Wcomp weights — which makes
// incremental repartitioning essentially free next to the remap itself.
// It is the curve cache of the morton and hilbert Repartitioner, which
// smooths every cut with band-FM and charges the build (BuildOps) to its
// first Repartition.
type SFCPartitioner struct {
	// Workers is the resolved worker count the model charges the parallel
	// phases across (≥ 1; construction resolves 0 to GOMAXPROCS).
	Workers int
	// order holds the dual vertices sorted by curve key.
	order []int32
}

// NewSFCWorkers builds the cached curve order of g's centroids (the
// O(n log n) part: key generation plus one sort), charged across the
// given worker knob (≤ 0 = GOMAXPROCS) by BuildOps. The curve order is
// the same at every worker count.
func NewSFCWorkers(g *dual.Graph, c sfc.Curve, workers int) *SFCPartitioner {
	s := &SFCPartitioner{Workers: chunk.Workers(workers)}
	s.order = sortByKey(sfc.Keys(c, g.Centroid))
	return s
}

// BuildOps is the charge of building the curve order: n key generations
// plus n·log2 n sort comparisons. The critical path divides each phase by
// the workers it would run on, which is 1 below the phase's cutoff, so a
// small graph is charged its whole serial cost. The sample sort's serial
// splitter selection is folded into its +w term. Like the cut's, the
// critical path is capped at the total: the serial merge terms can
// otherwise nudge it past at tiny n or w = 1, and no schedule is slower
// than running everything serially.
func (s *SFCPartitioner) BuildOps() machine.Ops {
	n := len(s.order)
	kw := int64(phaseWorkers(n, s.Workers, keysSerialCutoff))
	sw := int64(phaseWorkers(n, min(s.Workers, n/(sortSerialCutoff/8)), sortSerialCutoff))
	keys, cmps := int64(n), int64(n)*int64(log2ceil(n))
	crit := machine.CeilDiv(keys, kw) + machine.CeilDiv(cmps, sw) + sw - 1
	return machine.Ops{Total: keys + cmps, Crit: min(crit, keys+cmps)}
}

// phaseWorkers is the worker count a pipeline phase over n items is
// charged across: w, or 1 below the phase's serial cutoff.
func phaseWorkers(n, w, cutoff int) int {
	if w <= 1 || n < cutoff {
		return 1
	}
	return w
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

// Repartition cuts the cached curve order into k chunks balancing the
// graph's *current* Wcomp, in O(n) work. It is safe to call repeatedly as
// the weights evolve across adaption steps; the sorted order is reused.
//
// Balance guarantee (before refinement): each chunk receives the vertices
// whose weighted-midpoint prefix falls in one of k equal windows of the
// total weight, so a chunk's weight exceeds ΣW/k by at most max(Wcomp) —
// i.e. Imbalance ≤ 1 + k·max(Wcomp)/ΣW. The Repartitioner's FM pass
// reduces the cut while keeping every part within the larger of that
// bound and its own 3% tolerance: Wmax ≤ max(ΣW/k + max(Wcomp), 1.03·ΣW/k).
func (s *SFCPartitioner) Repartition(g *dual.Graph, k int) Assignment {
	asg, _ := s.cut(g, k)
	return asg
}

// cut is Repartition with its charge: the weight-sum scan, the window
// scan and the fill, 3n ops at O(n/Workers) critical path, capped at the
// total.
func (s *SFCPartitioner) cut(g *dual.Graph, k int) (Assignment, machine.Ops) {
	n := len(s.order)
	asg := make(Assignment, n)
	if k <= 1 || n == 0 {
		return asg, machine.Ops{Total: int64(n), Crit: int64(n)}
	}
	if k > n {
		k = n
	}
	bounds := s.cutSerial(g, k)
	repairBounds(bounds, k, n)
	for p := 0; p < k; p++ {
		for _, v := range s.order[bounds[p]:bounds[p+1]] {
			asg[v] = int32(p)
		}
	}
	w := phaseWorkers(n, s.Workers, repartSerialCutoff)
	total := 3 * int64(n)
	return asg, machine.Ops{Total: total, Crit: min(machine.CeilDiv(total, int64(w))+int64(k)+int64(w), total)}
}

// cutSerial computes the raw window boundaries with a single prefix-sum
// scan: vertex i (in curve order) belongs to the window containing the
// midpoint of its weight interval [prefix, prefix+w). Midpoints are
// increasing along the order, so chunks are contiguous. Without weight
// the chunks are equal-count.
func (s *SFCPartitioner) cutSerial(g *dual.Graph, k int) []int {
	n := len(s.order)
	var total int64
	for _, w := range g.Wcomp {
		total += w
	}
	bounds := make([]int, k+1)
	bounds[k] = n
	if total == 0 {
		for p := 1; p < k; p++ {
			bounds[p] = p * n / k
		}
		return bounds
	}
	for p := 1; p < k; p++ {
		bounds[p] = -1
	}
	var prefix int64
	for i, v := range s.order {
		mid := float64(prefix) + float64(g.Wcomp[v])/2
		p := min(int(mid*float64(k)/float64(total)), k-1)
		// First vertex of each window starts that window's chunk.
		for q := p; q >= 1 && bounds[q] < 0; q-- {
			bounds[q] = i
		}
		prefix += g.Wcomp[v]
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

// log2ceil returns ceil(log2(n)) for n ≥ 1.
func log2ceil(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
