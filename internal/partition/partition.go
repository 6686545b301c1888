// Package partition provides weighted graph partitioners for the dual
// graph, standing in for the Chaco package the paper uses ("multilevel
// spectral Lanczos partitioning algorithm with local Kernighan-Lin
// refinement"). The paper treats the partitioner as a pluggable black box;
// this package supplies the same family, selected by Method:
//
//   - inertial:   recursive coordinate bisection along principal axes;
//   - multilevel: matching-based coarsening, recursive spectral bisection
//     of the coarse graph (Lanczos Fiedler vectors, internal/sparse), and
//     Kernighan–Lin/Fiduccia–Mattheyses boundary refinement during
//     uncoarsening — the Chaco-style default;
//   - morton, hilbert: the exact minimum-bottleneck contiguous cut of a
//     space-filling-curve ordering (sfc.go), with no refinement after it.
//
// All partitioners balance the dual graph's computational weights Wcomp.
package partition

import (
	"math"
	"slices"

	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
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
	MethodInertial Method = iota
	MethodMultilevel
	// MethodMortonSFC and MethodHilbertSFC cut a space-filling-curve
	// ordering of the element centroids into weighted chunks (see sfc.go):
	// near-linear time, and O(n) incremental repartitioning on a
	// Repartitioner, which caches the curve order (SFCPartitioner).
	MethodMortonSFC
	MethodHilbertSFC
)

// Methods lists every available partitioner, in declaration order — the
// iteration table for experiments, benchmarks, and CLI validation.
var Methods = []Method{
	MethodInertial, MethodMultilevel, MethodMortonSFC, MethodHilbertSFC,
}

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
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

// MarshalText spells the method by its String name in JSON.
func (m Method) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

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
	// Workers is the worker count the model charges the curve build and
	// cut across (see SFCPartitioner); it only scales that charge, and
	// the host runs the curve methods serially. Multilevel refines with
	// the serial classic sweep (refine.FMRefine) and ignores it, as does
	// inertial. ≤ 0 means runtime.GOMAXPROCS. Assignments are identical
	// at every worker count.
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
// operation count of the work it actually did, so the framework can
// charge repartitioning to the remap acceptance rule regardless of
// method. It is one Repartition on a fresh Repartitioner, so a curve
// method's charge includes building its curve order.
func PartitionCounted(g *dual.Graph, k int, m Method, opt Options) (Assignment, machine.Ops) {
	return NewRepartitioner(g, m, opt).Repartition(k)
}

// Repartitioner partitions one dual graph again and again with one
// method. The dual graph is built once, on the initial mesh, and only its
// weights change (the paper's central invariant), so what it caches never
// needs invalidating, whatever the weights or k: the curve methods cache
// their curve order and cut it in near-O(n) per call; the graph methods
// cache nothing.
type Repartitioner struct {
	g      *dual.Graph
	method Method
	opt    Options
	sfc    *SFCPartitioner // the curve order; nil for the graph methods
	build  machine.Ops     // the curve build's charge, until a Repartition pays it
}

// NewRepartitioner builds the repartitioner of g under method m, sorting
// g's centroids along the curve for morton and hilbert. An unknown
// method partitions as multilevel.
func NewRepartitioner(g *dual.Graph, m Method, opt Options) *Repartitioner {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	r := &Repartitioner{g: g, method: m, opt: opt}
	if c, ok := m.Curve(); ok {
		r.sfc = NewSFCWorkers(g, c, opt.Workers)
		r.build = r.sfc.BuildOps()
	}
	return r
}

// Initial returns the setup partition into k parts, uncharged: the first
// Repartition still pays for the curve order it reuses.
func (r *Repartitioner) Initial(k int) Assignment {
	asg, _ := r.cut(k)
	return asg
}

// Repartition divides the graph into k parts under its current weights
// and returns the charge of the work, the curve build included on the
// first call. Refinement ops land in the Mem share.
func (r *Repartitioner) Repartition(k int) (Assignment, machine.Ops) {
	asg, ops := r.cut(k)
	ops.Add(r.build)
	r.build = machine.Ops{}
	return asg, ops
}

// cut partitions with the method and counts the work, without the curve
// build. The curve methods' cut is the exact minimum-bottleneck cut of the
// curve order, and nothing runs after it: the modeled clock never prices
// the edge cut, and no cut of the curve balances better.
func (r *Repartitioner) cut(k int) (Assignment, machine.Ops) {
	switch {
	case r.sfc != nil:
		return r.sfc.cut(r.g, k)
	case r.method == MethodInertial:
		return inertialCounted(r.g, k)
	default:
		return multilevelCounted(r.g, k, r.opt)
	}
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
	recursiveBisect(g, idxs, 0, k, asg, &ops, make([]int32, g.N), func(sub []int32) ([]float64, int64) {
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
// sparse.Lanczos.Fiedler (per-iteration sparse matvecs plus full
// reorthogonalization), which dwarfs the sort-and-split bookkeeping.
// Every bisection of the call reuses one Laplacian and one Lanczos
// workspace.
func spectralCounted(g *dual.Graph, k int) (Assignment, machine.Ops) {
	asg := make(Assignment, g.N)
	idxs := make([]int32, g.N)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	s := &spectralWork{g: g, local: make([]int32, g.N)}
	for i := range s.local {
		s.local[i] = -1
	}
	var ops int64
	recursiveBisect(g, idxs, 0, k, asg, &ops, make([]int32, g.N), s.fiedler)
	return asg, machine.Ops{Total: ops, Crit: ops}
}

// recursiveBisect splits idxs into k parts numbered [base, base+k),
// writing into asg. value computes, for a subset, the 1-D embedding to
// split at the weighted median, and reports the abstract op count of that
// computation; recursiveBisect adds the sort and scan costs to *ops. Each
// split reorders idxs in place, sorted by value, so the two sides are its
// prefix and suffix; ord is scratch of at least len(idxs) entries.
func recursiveBisect(g *dual.Graph, idxs []int32, base, k int, asg Assignment, ops *int64, ord []int32, value func([]int32) ([]float64, int64)) {
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
	recursiveBisect(g, idxs[:split], base, k1, asg, ops, ord, value)
	recursiveBisect(g, idxs[split:], base+k1, k-k1, asg, ops, ord, value)
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

// spectralWork is the scratch every bisection of one spectralCounted call
// reuses: local, a g.N-long index that is -1 everywhere outside a solve,
// the subgraph's Laplacian, and the Lanczos workspace.
type spectralWork struct {
	g     *dual.Graph
	local []int32
	L     sparse.CSR
	lz    sparse.Lanczos
}

// fiedler computes the Fiedler embedding of the subgraph induced by sub,
// writing its Laplacian directly from g's rows, and reports the op count
// of the extraction plus the Lanczos solve.
func (s *spectralWork) fiedler(sub []int32) ([]float64, int64) {
	g, local := s.g, s.local
	for i, v := range sub {
		local[v] = int32(i)
	}
	var ops int64
	sparse.Laplacian(&s.L, len(sub), func(i int, dst []int32) []int32 {
		nbrs := g.Nbrs(sub[i])
		ops += 1 + int64(len(nbrs))
		for _, w := range nbrs {
			if lw := local[w]; lw >= 0 {
				dst = append(dst, lw)
			}
		}
		return dst
	})
	for _, v := range sub {
		local[v] = -1
	}
	vec, fops := s.lz.Fiedler(&s.L, 60, 1e-4, 42)
	return vec, ops + fops
}
