// Package partition provides weighted graph partitioners for the dual
// graph, standing in for the Chaco package the paper uses ("multilevel
// spectral Lanczos partitioning algorithm with local Kernighan-Lin
// refinement"). The paper treats the partitioner as a pluggable black box;
// this package supplies the same family, selected by Method:
//
//   - graphgrow:  greedy BFS graph growing (fast, moderate quality);
//   - inertial:   recursive coordinate bisection along principal axes;
//   - multilevel: matching-based coarsening, recursive spectral bisection
//     of the coarse graph (Lanczos Fiedler vectors, internal/sparse), and
//     Kernighan–Lin/Fiduccia–Mattheyses boundary refinement during
//     uncoarsening — the Chaco-style default;
//   - morton, hilbert: weighted cuts of a space-filling-curve ordering
//     (sfc.go).
//
// All partitioners balance the dual graph's computational weights Wcomp.
package partition

import (
	"math"
	"math/rand"
	"slices"

	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/refine"
	"plum/internal/sfc"
	"plum/internal/sparse"
)

// Assignment maps each dual-graph vertex to a partition number.
type Assignment []int32

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

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
	for v := range g.Adj {
		for _, w := range g.Adj[v] {
			if int32(v) < w && asg[v] != asg[w] {
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
	MethodGraphGrow Method = iota
	MethodInertial
	MethodMultilevel
	// MethodMortonSFC and MethodHilbertSFC cut a space-filling-curve
	// ordering of the element centroids into weighted chunks (see sfc.go):
	// near-linear time, and O(n) incremental repartitioning via
	// SFCPartitioner.
	MethodMortonSFC
	MethodHilbertSFC
)

// Methods lists every available partitioner, in declaration order — the
// iteration table for experiments, benchmarks, and CLI validation.
var Methods = []Method{
	MethodGraphGrow, MethodInertial, MethodMultilevel,
	MethodMortonSFC, MethodHilbertSFC,
}

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodGraphGrow:
		return "graphgrow"
	case MethodInertial:
		return "inertial"
	case MethodMultilevel:
		return "multilevel"
	case MethodMortonSFC:
		return "morton"
	case MethodHilbertSFC:
		return "hilbert"
	}
	return "unknown"
}

// Curve returns the space-filling curve of an SFC method; ok is false
// for the graph partitioners.
func (m Method) Curve() (sfc.Curve, bool) {
	switch m {
	case MethodMortonSFC:
		return sfc.Morton, true
	case MethodHilbertSFC:
		return sfc.Hilbert, true
	}
	return 0, false
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
	// Workers bounds the worker-goroutine count of the parallel phases
	// (SFC key generation, sample sort, chunked weighted cut, boundary
	// refinement). ≤ 0 means runtime.GOMAXPROCS. Assignments are
	// identical at every worker count.
	Workers int
	// Seed drives randomized components (GraphGrow seeding, multilevel
	// matching order). 0 is treated as 1, the historical default.
	Seed int64
	// Refiner is the boundary-refinement backend applied by the backends
	// that smooth their cuts (GraphGrow, Multilevel, the SFC methods).
	// nil selects each backend's own default: refine.Default (the
	// deterministic band-limited FM) for the SFC pipeline and GraphGrow,
	// the classic serial sweep for Multilevel (whose per-level graphs are
	// small and serial). A non-nil value wins everywhere.
	Refiner refine.Refiner
}

// refinerFor returns the configured refinement backend for an n-vertex
// graph, defaulting to refine.Default at the options' worker knob (the
// default of every backend except Multilevel — see multilevelCounted).
func (o Options) refinerFor(n int) refine.Refiner {
	if o.Refiner != nil {
		return o.Refiner
	}
	return refine.Default(n, o.Workers)
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
// operation count of the work it actually did, so the framework can
// charge repartitioning to the remap acceptance rule regardless of
// method.
func PartitionCounted(g *dual.Graph, k int, m Method, opt Options) (Assignment, machine.Ops) {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	switch m {
	case MethodGraphGrow:
		return graphGrowCounted(g, k, opt)
	case MethodInertial:
		return inertialCounted(g, k)
	case MethodMortonSFC:
		return sfcCounted(g, k, sfc.Morton, opt)
	case MethodHilbertSFC:
		return sfcCounted(g, k, sfc.Hilbert, opt)
	default:
		return multilevelCounted(g, k, opt)
	}
}

// graphGrowCounted partitions by growing all k regions simultaneously from
// spread-out seeds: at every step the lightest part with a live frontier
// absorbs one unassigned neighbour. Growing lightest-first makes the
// result balanced by construction even at high k, where sequential growth
// leaves the last parts only fragmented leftovers. It counts one op per
// lightest-part scan entry, per adjacency visit, and per refinement op.
// Growth is serial (Total == Crit); only the boundary-smoothing pass of
// the configured refiner may parallelize.
func graphGrowCounted(g *dual.Graph, k int, opt Options) (Assignment, machine.Ops) {
	seed := opt.Seed
	var ops int64
	asg := make(Assignment, g.N)
	for i := range asg {
		asg[i] = -1
	}
	if k <= 1 {
		for i := range asg {
			asg[i] = 0
		}
		ops = int64(g.N)
		return asg, machine.Ops{Total: ops, Crit: ops}
	}
	rng := rand.New(rand.NewSource(seed))
	wts := make([]int64, k)
	frontiers := make([][]int32, k)

	// Seeds: strided over the vertex order (spatially coherent for
	// generated meshes), jittered a little so equal-weight ties differ
	// between runs with different seeds. At most g.N parts can be seeded;
	// any further parts stay empty (caller violated k ≤ N).
	nSeeds := k
	if nSeeds > g.N {
		nSeeds = g.N
	}
	for p := 0; p < nSeeds; p++ {
		s := int32((p*g.N + g.N/2) / k)
		for asg[s] >= 0 {
			s = int32(rng.Intn(g.N))
		}
		asg[s] = int32(p)
		wts[p] += g.Wcomp[s]
		frontiers[p] = append(frontiers[p], s)
	}

	assigned := nSeeds
	stuck := 0 // parts whose frontier is exhausted
	for assigned < g.N {
		// Lightest part with a live frontier grows next.
		ops += int64(k)
		p := -1
		for q := 0; q < k; q++ {
			if len(frontiers[q]) > 0 && (p < 0 || wts[q] < wts[p]) {
				p = q
			}
		}
		if p < 0 {
			// All frontiers exhausted (disconnected remainder): re-seed
			// the lightest part at an arbitrary unassigned vertex.
			p = argminW(wts)
			for v := range asg {
				if asg[v] < 0 {
					asg[v] = int32(p)
					wts[p] += g.Wcomp[v]
					frontiers[p] = append(frontiers[p], int32(v))
					assigned++
					break
				}
			}
			stuck++
			if stuck > g.N {
				break // defensive: cannot happen on a finite graph
			}
			continue
		}
		// Absorb one unassigned neighbour of p's frontier.
		grew := false
		for len(frontiers[p]) > 0 && !grew {
			v := frontiers[p][0]
			nbrs := g.Adj[v]
			ops += 1 + int64(len(nbrs))
			for _, u := range nbrs {
				if asg[u] < 0 {
					asg[u] = int32(p)
					wts[p] += g.Wcomp[u]
					frontiers[p] = append(frontiers[p], u)
					assigned++
					grew = true
					break
				}
			}
			if !grew {
				// v has no unassigned neighbours left; retire it.
				frontiers[p] = frontiers[p][1:]
			}
		}
	}
	// A refinement pass smooths the growth fronts.
	out := machine.Ops{Total: ops, Crit: ops}
	out.Add(opt.refinerFor(g.N).Refine(g, asg, k, 2))
	return asg, out
}

func argminW(w []int64) int {
	best := 0
	for i, x := range w {
		if x < w[best] {
			best = i
		}
	}
	return best
}

// inertialCounted partitions by recursive inertial bisection: each
// subdomain is split at the weighted median of element centroids projected
// onto the subdomain's principal axis. It counts the covariance
// accumulation and power iteration per subdomain, plus the shared
// sort-and-split cost counted by recursiveBisect.
func inertialCounted(g *dual.Graph, k int) (Assignment, machine.Ops) {
	asg := make(Assignment, g.N)
	idxs := make([]int32, g.N)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	var ops int64
	recursiveBisect(g, idxs, 0, k, asg, &ops, func(sub []int32) ([]float64, int64) {
		axis := principalAxis(g, sub)
		vals := make([]float64, len(sub))
		for i, v := range sub {
			vals[i] = g.Centroid[v].Dot(axis)
		}
		// Covariance build (~10 flops/vertex), 50 power iterations on the
		// 3×3 (~12 flops each), and the projection.
		return vals, int64(len(sub))*11 + 600
	})
	return asg, machine.Ops{Total: ops, Crit: ops}
}

// spectralCounted partitions by recursive spectral bisection: each
// subdomain is split at the weighted median of its Fiedler vector
// (Lanczos, see internal/sparse). It is Multilevel's coarse-graph solver,
// not a selectable method: on the full dual graph it was the slowest
// backend on every bench workload, by 3× to 200× modeled run time, and
// won none on balance or cut (census in CHANGES.md, PR 20). The dominant
// op term is the Lanczos work inside
// sparse.FiedlerCounted (per-iteration sparse matvecs plus full
// reorthogonalization), which dwarfs the sort-and-split bookkeeping.
func spectralCounted(g *dual.Graph, k int) (Assignment, machine.Ops) {
	asg := make(Assignment, g.N)
	idxs := make([]int32, g.N)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	var ops int64
	recursiveBisect(g, idxs, 0, k, asg, &ops, func(sub []int32) ([]float64, int64) {
		return subgraphFiedler(g, sub)
	})
	return asg, machine.Ops{Total: ops, Crit: ops}
}

// recursiveBisect splits idxs into k parts numbered [base, base+k),
// writing into asg. value computes, for a subset, the 1-D embedding to
// split at the weighted median, and reports the abstract op count of that
// computation; recursiveBisect adds the sort and scan costs to *ops.
func recursiveBisect(g *dual.Graph, idxs []int32, base, k int, asg Assignment, ops *int64, value func([]int32) ([]float64, int64)) {
	if k <= 1 {
		for _, v := range idxs {
			asg[v] = int32(base)
		}
		*ops += int64(len(idxs))
		return
	}
	k1 := (k + 1) / 2
	frac := float64(k1) / float64(k)
	vals, vops := value(idxs)
	n := int64(len(idxs))
	*ops += vops + n*int64(log2ceil(len(idxs)+1)) + n

	ord := make([]int, len(idxs))
	for i := range ord {
		ord[i] = i
	}
	// Ties broken by position for a fully deterministic split order.
	slices.SortFunc(ord, func(a, b int) int {
		switch {
		case vals[a] < vals[b]:
			return -1
		case vals[a] > vals[b]:
			return 1
		}
		return a - b
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
	left := make([]int32, 0, split)
	right := make([]int32, 0, len(ord)-split)
	for i, o := range ord {
		if i < split {
			left = append(left, idxs[o])
		} else {
			right = append(right, idxs[o])
		}
	}
	recursiveBisect(g, left, base, k1, asg, ops, value)
	recursiveBisect(g, right, base+k1, k-k1, asg, ops, value)
}

// principalAxis returns the dominant eigenvector of the weighted
// covariance of the subset's centroids (power iteration on the 3×3
// covariance matrix).
func principalAxis(g *dual.Graph, sub []int32) geom.Vec3 {
	var mean geom.Vec3
	var wsum float64
	for _, v := range sub {
		w := float64(g.Wcomp[v])
		mean = mean.Add(g.Centroid[v].Scale(w))
		wsum += w
	}
	if wsum == 0 {
		return geom.Vec3{X: 1}
	}
	mean = mean.Scale(1 / wsum)
	var c [3][3]float64
	for _, v := range sub {
		d := g.Centroid[v].Sub(mean)
		w := float64(g.Wcomp[v])
		p := [3]float64{d.X, d.Y, d.Z}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				c[i][j] += w * p[i] * p[j]
			}
		}
	}
	x := [3]float64{1, 0.7, 0.4} // deterministic, unlikely to be orthogonal
	for it := 0; it < 50; it++ {
		var y [3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				y[i] += c[i][j] * x[j]
			}
		}
		n := y[0]*y[0] + y[1]*y[1] + y[2]*y[2]
		if n == 0 {
			break
		}
		inv := 1 / math.Sqrt(n)
		for i := range y {
			y[i] *= inv
		}
		x = y
	}
	return geom.Vec3{X: x[0], Y: x[1], Z: x[2]}
}

// subgraphFiedler computes the Fiedler embedding of the induced subgraph,
// reporting the op count of the extraction plus the Lanczos solve.
func subgraphFiedler(g *dual.Graph, sub []int32) ([]float64, int64) {
	local := make(map[int32]int32, len(sub))
	for i, v := range sub {
		local[v] = int32(i)
	}
	var ops int64
	adj := make([][]int32, len(sub))
	for i, v := range sub {
		ops += 1 + int64(len(g.Adj[v]))
		for _, w := range g.Adj[v] {
			if lw, ok := local[w]; ok {
				adj[i] = append(adj[i], lw)
			}
		}
	}
	L := sparse.Laplacian(adj)
	vec, fops := sparse.FiedlerCounted(L, 60, 1e-4, 42)
	return vec, ops + fops
}
