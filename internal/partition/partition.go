// Package partition provides weighted graph partitioners for the dual
// graph, standing in for the Chaco package the paper uses (multilevel
// spectral partitioning with local Kernighan-Lin refinement). The paper
// treats the partitioner as a pluggable black box; this package supplies
// the same family, selected by Method, and owns every algorithm of it:
//
//   - multilevel: matching-based coarsening, recursive bisection of the
//     coarse graph on BFS level sets from a pseudo-peripheral vertex, and
//     Kernighan–Lin/Fiduccia–Mattheyses boundary refinement (fm.go)
//     during uncoarsening — the paper's default. Chaco bisects the coarse graph
//     on an eigenvector instead; METIS's graph growing (Karypis & Kumar)
//     splits a graph of a few hundred vertices about as well for a
//     fraction of the work. Given the current owners, it rebalances them
//     by diffusion instead (diffuse.go), priced on the parts' ranks
//     (schedule.go);
//   - morton, hilbert: the exact minimum-bottleneck contiguous cut of a
//     space-filling-curve ordering (sfc.go) of the element centroids'
//     curve keys (keys.go), with no refinement after it.
//     The curve order is built once and priced as a parallel sort on the
//     parts' ranks (CurveBuildTime); the cut is priced at its serial
//     work, because it walks the whole n-entry prefix.
//
// Method is the one curve selector: the key generation switches on it
// once per call. All partitioners balance the dual graph's computational
// weights Wcomp.
package partition

import (
	"slices"

	"plum/internal/dual"
	"plum/internal/machine"
)

// Assignment maps each dual-graph vertex to a partition number.
type Assignment []int32

// Weights returns the total Wcomp per partition.
func Weights(g *dual.Graph, asg Assignment, k int) []int64 {
	w := make([]int64, k)
	for v, p := range asg {
		w[p] += g.Wcomp[v]
	}
	return w
}

// Imbalance returns the paper's load-imbalance factor Wmax/Wavg for the
// given partitioning (1.0 is perfect balance).
func Imbalance(g *dual.Graph, asg Assignment, k int) float64 {
	w := Weights(g, asg, k)
	var max, sum int64
	for _, x := range w {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1
	}
	avg := float64(sum) / float64(k)
	return float64(max) / avg
}

// EdgeCut returns the number of dual edges crossing partition boundaries
// (uniform edge weights, as in the paper's test cases).
func EdgeCut(g *dual.Graph, asg Assignment) int64 {
	var cut int64
	for v := range int32(g.N) {
		for _, w := range g.Nbrs(v) {
			if v < w && asg[v] != asg[w] {
				cut++
			}
		}
	}
	return cut * g.EdgeWeight
}

// Method selects a partitioning algorithm.
type Method int

// Available partitioners.
const (
	MethodMultilevel Method = iota
	// MethodMortonSFC and MethodHilbertSFC cut a space-filling-curve
	// ordering of the element centroids into weighted chunks (see sfc.go):
	// near-linear time, and O(n) incremental repartitioning on a
	// Repartitioner, which caches the curve order (SFCPartitioner).
	MethodMortonSFC
	MethodHilbertSFC
)

// Methods lists every available partitioner, in declaration order — the
// iteration table for experiments, benchmarks, and CLI validation.
var Methods = []Method{MethodMultilevel, MethodMortonSFC, MethodHilbertSFC}

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodMultilevel:
		return "multilevel"
	case MethodMortonSFC:
		return "morton"
	case MethodHilbertSFC:
		return "hilbert"
	}
	return "unknown"
}

// MarshalText spells the method by its String name in JSON.
func (m Method) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// Curve returns m and whether it is a space-filling-curve method: the
// methods are the curve enum, and NewSFCWorkers keys along m itself.
func (m Method) Curve() (Method, bool) {
	return m, m == MethodMortonSFC || m == MethodHilbertSFC
}

// MethodByName returns the partitioner with the given CLI name.
func MethodByName(name string) (Method, bool) {
	for _, m := range Methods {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// Options configures a partitioning call.
type Options struct {
	// Workers is ignored: every partitioner runs serially and is charged
	// its work.
	//
	// Deprecated: it goes when the benchmark stops setting it.
	Workers int
	// Seed drives the multilevel matching order. 0 is treated as 1, the
	// historical default.
	Seed int64
}

// Partition divides g into k parts with the chosen method. A valid
// k-way partitioning (every part non-empty) requires 1 ≤ k ≤ g.N;
// callers exceeding g.N get an assignment with empty parts.
func Partition(g *dual.Graph, k int, m Method) Assignment {
	asg, _ := PartitionCounted(g, k, m, Options{})
	return asg
}

// PartitionCounted is Partition with explicit options and honest cost
// accounting: every backend — graph and SFC alike — reports the abstract
// operation count of the work it actually did. It is the partition and
// work of one Repartition without owners on a fresh Repartitioner, so a
// curve method's work includes building its curve order.
func PartitionCounted(g *dual.Graph, k int, m Method, opt Options) (Assignment, machine.Ops) {
	asg, ops, _ := NewRepartitioner(g, m, opt).Repartition(k, nil, machine.Model{})
	return asg, ops
}

// Repartitioner partitions one dual graph again and again with one
// method. The dual graph is built once, on the initial mesh, and only its
// weights change (the paper's central invariant), so what it caches never
// needs invalidating, whatever the weights or k: the curve methods cache
// their curve order and cut it in near-O(n) per call; multilevel keeps
// only the scratch of its rebalancing from the owners (diffuse.go), which
// reads nothing but the owners it is given.
type Repartitioner struct {
	g      *dual.Graph
	opt    Options
	sfc    *SFCPartitioner // the curve order; nil for multilevel
	unpaid bool            // no Repartition has paid for the curve build yet
	diff   diffuser        // multilevel's rebalance scratch
	asg    Assignment      // the curve cut's assignment
}

// NewRepartitioner builds the repartitioner of g under method m, sorting
// g's centroids along the curve for morton and hilbert. An unknown
// method partitions as multilevel.
func NewRepartitioner(g *dual.Graph, m Method, opt Options) *Repartitioner {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	r := &Repartitioner{g: g, opt: opt}
	if _, ok := m.Curve(); ok {
		r.sfc, r.unpaid = NewSFCWorkers(g, m, opt.Workers), true
	}
	return r
}

// Initial returns the setup partition into k parts, from scratch and
// uncharged: the first Repartition still pays for the curve order it
// reuses, priced as the parallel sort on that call's k ranks. Like
// Repartition's, the assignment is valid until r's next call.
func (r *Repartitioner) Initial(k int) Assignment {
	asg, _ := r.cut(k)
	return asg
}

// Repartition divides the graph into k parts under its current weights
// and returns the work, the curve build included on the first call, and
// its modeled seconds on mdl. Refinement ops land in the Mem share.
//
// Two stages are priced on the k parts' ranks, one rank a part: a
// rebalance, by its per-rank schedule (schedule.go) with only the closing
// FM priced serially, and the curve build the first call pays for, as a
// parallel sort (CurveBuildTime). Every other stage runs on one rank, and
// its seconds are its work's machine.Ops.Time: the curve cut, the
// from-scratch chain, and the scan that rejected an owner set.
//
// owners is the current assignment, or nil. Multilevel rebalances it
// when it is a k-way assignment with every part non-empty, moving load
// only between neighbouring parts (rebalance, diffuse.go), and partitions
// from scratch otherwise: without owners, with more parts than owners
// (F > 1), with an owner outside [0, k), such as a dead rank's −1 in
// crash recovery, or with fewer than diffuseMinVerts vertices a part. The
// scan that rejects an owner set is charged too. The curve methods ignore
// the owners. The curve cut and the rebalance write the assignment into
// r's own scratch, so it is valid until r's next Repartition or Initial,
// and a warm r allocates none.
func (r *Repartitioner) Repartition(k int, owners []int32, mdl machine.Model) (Assignment, machine.Ops, float64) {
	var work machine.Ops
	if r.sfc == nil && owners != nil && r.g.N >= diffuseMinVerts*k {
		asg, ops, secs, ok := r.diff.rebalance(r.g, k, owners, mdl)
		if ok {
			return asg, ops, secs
		}
		work = ops
	}
	asg, ops := r.cut(k)
	work.Add(ops)
	secs := work.Time(mdl)
	if r.unpaid {
		r.unpaid = false
		work.Add(r.sfc.BuildOps())
		secs += CurveBuildTime(r.g.N, k, mdl)
	}
	return asg, work, secs
}

// cut partitions with the method and counts the work, without the curve
// build. The curve methods' cut is the exact minimum-bottleneck cut of
// the curve order, and nothing runs after it: the modeled clock never
// prices the edge cut, and no cut of the curve balances better.
func (r *Repartitioner) cut(k int) (Assignment, machine.Ops) {
	if r.sfc != nil {
		var ops machine.Ops
		r.asg, ops = r.sfc.cut(r.g, k, r.asg)
		return r.asg, ops
	}
	return multilevelCounted(r.g, k, r.opt)
}

// levelSetCounted partitions by recursive level-set bisection: each
// subdomain is split at the weighted median of its BFS distances from a
// pseudo-peripheral vertex (levelSets.embed), METIS's graph-growing idea
// (Karypis & Kumar). It is Multilevel's coarse-graph solver, not a
// selectable method, and FM refines its cut on every level after it.
// Every bisection of the call reuses one scratch.
func levelSetCounted(g *dual.Graph, k int) (Assignment, machine.Ops) {
	asg := make(Assignment, g.N)
	idxs := make([]int32, g.N)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	var ops int64
	recursiveBisect(newLevelSets(g), idxs, 0, k, asg, &ops, make([]int32, g.N))
	return asg, machine.Ops{Total: ops}
}

// recursiveBisect splits idxs into k parts numbered [base, base+k),
// writing into asg. Each split cuts the level-set embedding of the subset
// (s.embed) at its weighted median; the embedding's op count and the sort
// and scan costs are added to *ops. Each split reorders idxs in place,
// sorted by distance, so the two sides are its prefix and suffix; ord is
// scratch of at least len(idxs) entries.
func recursiveBisect(s *levelSets, idxs []int32, base, k int, asg Assignment, ops *int64, ord []int32) {
	if k <= 1 {
		for _, v := range idxs {
			asg[v] = int32(base)
		}
		*ops += int64(len(idxs))
		return
	}
	k1 := (k + 1) / 2
	frac := float64(k1) / float64(k)
	g := s.g
	vals, vops := s.embed(idxs)
	n := int64(len(idxs))
	*ops += vops + n*int64(log2ceil(len(idxs)+1)) + n

	ord = ord[:len(idxs)]
	for i := range ord {
		ord[i] = int32(i)
	}
	// Ties broken by position for a fully deterministic split order.
	slices.SortFunc(ord, func(a, b int32) int {
		switch {
		case vals[a] < vals[b]:
			return -1
		case vals[a] > vals[b]:
			return 1
		}
		return int(a - b)
	})

	var total int64
	for _, v := range idxs {
		total += g.Wcomp[v]
	}
	targetW := int64(frac * float64(total))
	var acc int64
	split := 0
	for split < len(ord) && acc < targetW {
		acc += g.Wcomp[idxs[ord[split]]]
		split++
	}
	// Each side must keep at least as many vertices as the parts it will
	// be split into, or the recursion bottoms out with empty parts (the
	// weighted median can collapse to one side when a few vertices carry
	// almost all the weight). When the subset is smaller than k (caller
	// violated k ≤ N) the two goals conflict; keep split in range and
	// accept empty parts rather than crash.
	if split < k1 {
		split = k1
	}
	if max := len(ord) - (k - k1); split > max {
		split = max
	}
	if split < 0 {
		split = 0
	}
	if split > len(ord) {
		split = len(ord)
	}
	// Sort idxs by value: each position of ord becomes the vertex it
	// points at, and the result is copied back.
	for i, o := range ord {
		ord[i] = idxs[o]
	}
	copy(idxs, ord)
	recursiveBisect(s, idxs[:split], base, k1, asg, ops, ord)
	recursiveBisect(s, idxs[split:], base+k1, k-k1, asg, ops, ord)
}

// levelSets is the scratch every bisection of one levelSetCounted call
// reuses: local, a g.N-long index that is -1 everywhere outside a
// bisection, and the distances (the embedding embed returns) and the BFS
// queue, both indexed by position in the subset.
type levelSets struct {
	g     *dual.Graph
	local []int32
	dist  []float64
	queue []int32
}

func newLevelSets(g *dual.Graph) *levelSets {
	s := &levelSets{g: g, local: make([]int32, g.N), dist: make([]float64, g.N), queue: make([]int32, 0, g.N)}
	for i := range s.local {
		s.local[i] = -1
	}
	return s
}

// embed returns the level-set embedding of the subgraph induced by sub:
// a BFS from sub[0] ends at a pseudo-peripheral vertex, and the values are
// the distances of a second BFS from it. Every further component is
// searched once, from its lowest position in sub, with its distances
// offset past the previous maximum, so each component stays contiguous in
// the sort order. The op count charges 1 + deg for every vertex a sweep
// visits.
func (s *levelSets) embed(sub []int32) ([]float64, int64) {
	dist := s.dist[:len(sub)]
	if len(sub) == 0 {
		return dist, 0
	}
	for i, v := range sub {
		s.local[v] = int32(i)
		dist[i] = -1
	}
	s.queue = s.queue[:0]
	far, ops := s.sweep(sub, 0, 0)
	for _, u := range s.queue {
		dist[u] = -1
	}
	s.queue = s.queue[:0]
	last, o := s.sweep(sub, far, 0)
	ops += o
	for i, d := range dist {
		if d < 0 {
			last, o = s.sweep(sub, int32(i), dist[last]+1)
			ops += o
		}
	}
	for _, v := range sub {
		s.local[v] = -1
	}
	return dist, ops
}

// sweep runs a BFS over the subgraph induced by sub from position src,
// at distance base, appending the positions it visits to the queue. It
// returns the last position dequeued, the farthest from src, and 1 + deg
// per visited vertex.
func (s *levelSets) sweep(sub []int32, src int32, base float64) (int32, int64) {
	var ops int64
	q := append(s.queue, src)
	s.dist[src] = base
	for head := len(s.queue); head < len(q); head++ {
		u := q[head]
		nbrs := s.g.Nbrs(sub[u])
		ops += 1 + int64(len(nbrs))
		for _, w := range nbrs {
			if lw := s.local[w]; lw >= 0 && s.dist[lw] < 0 {
				s.dist[lw] = s.dist[u] + 1
				q = append(q, lw)
			}
		}
	}
	s.queue = q
	return q[len(q)-1], ops
}
