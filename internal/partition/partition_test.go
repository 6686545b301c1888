package partition

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
)

func testGraph(t *testing.T) *dual.Graph {
	t.Helper()
	m := meshgen.Box(6, 6, 6, geom.Vec3{X: 1, Y: 1, Z: 1})
	return dual.Build(m)
}

func checkAssignment(t *testing.T, g *dual.Graph, asg Assignment, k int, method string, maxImb float64) {
	t.Helper()
	if len(asg) != g.N {
		t.Fatalf("%s: assignment length %d != %d", method, len(asg), g.N)
	}
	seen := make([]int64, k)
	for v, p := range asg {
		if p < 0 || int(p) >= k {
			t.Fatalf("%s: vertex %d assigned to invalid part %d", method, v, p)
		}
		seen[p]++
	}
	for p, n := range seen {
		if n == 0 {
			t.Errorf("%s: part %d empty", method, p)
		}
	}
	if imb := Imbalance(g, asg, k); imb > maxImb {
		t.Errorf("%s: imbalance %.3f > %.3f", method, imb, maxImb)
	}
	if cut := EdgeCut(g, asg); cut <= 0 {
		t.Errorf("%s: edge cut %d (no boundary?)", method, cut)
	}
}

func TestPartitionersUniformWeights(t *testing.T) {
	g := testGraph(t)
	for _, m := range Methods {
		for _, k := range []int{2, 4, 7, 8} {
			asg := Partition(g, k, m)
			checkAssignment(t, g, asg, k, m.String(), 1.35)
		}
	}
}

func TestPartitionAdaptedWeights(t *testing.T) {
	// After refining a corner region, the partitioner must still balance
	// Wcomp within tolerance — this is the repartitioning step of the
	// paper's framework.
	m := meshgen.Box(6, 6, 6, geom.Vec3{X: 1, Y: 1, Z: 1})
	g := dual.Build(m)
	a := adapt.New(m)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.5}, adapt.MarkRefine)
	a.Refine()
	g.UpdateWeights(m)

	for _, meth := range []Method{MethodHilbertSFC, MethodMultilevel} {
		asg := Partition(g, 8, meth)
		if imb := Imbalance(g, asg, 8); imb > 1.6 {
			t.Errorf("%s: imbalance %.3f on adapted weights", meth, imb)
		}
	}
	// Multilevel's coarse-graph solver, held to the same bound directly.
	asg, _ := levelSetCounted(g, 8)
	if imb := Imbalance(g, asg, 8); imb > 1.6 {
		t.Errorf("level-set bisection: imbalance %.3f on adapted weights", imb)
	}
	// The SFC backends target the paper's operating point: ≤ 1.10.
	for _, meth := range []Method{MethodMortonSFC, MethodHilbertSFC} {
		asg := Partition(g, 8, meth)
		if imb := Imbalance(g, asg, 8); imb > 1.10 {
			t.Errorf("%s: imbalance %.3f > 1.10 on adapted weights", meth, imb)
		}
	}
}

// TestSFCIncrementalRepartition exercises the cached-order path: after the
// weights change (an adaption step), Repartition must rebalance in one
// O(n) scan and match the quality of a from-scratch SFC partition.
func TestSFCIncrementalRepartition(t *testing.T) {
	m := meshgen.Box(6, 6, 6, geom.Vec3{X: 1, Y: 1, Z: 1})
	g := dual.Build(m)
	for _, meth := range []Method{MethodMortonSFC, MethodHilbertSFC} {
		c, _ := meth.Curve()
		s := NewSFCWorkers(g, c, 0)
		sortOps := s.BuildOps()
		asg, ops := s.cut(g, 8, nil)
		if ops.Total >= sortOps.Total {
			t.Errorf("%v: incremental scan (%d ops) not cheaper than sort (%d ops)", c, ops.Total, sortOps.Total)
		}
		checkAssignment(t, g, asg, 8, c.String(), 1.35)

		// Refine a corner; the cached order must rebalance the new weights.
		a := adapt.New(m)
		a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.5}, adapt.MarkRefine)
		a.Refine()
		g.UpdateWeights(m)
		asg2 := s.Repartition(g, 8)
		checkAssignment(t, g, asg2, 8, c.String()+"/adapted", 1.10)

		scratch, _ := PartitionCounted(g, 8, meth, Options{})
		if imbI, imbS := Imbalance(g, asg2, 8), Imbalance(g, scratch, 8); imbI > imbS*1.05 {
			t.Errorf("%v: incremental imbalance %.3f much worse than scratch %.3f", c, imbI, imbS)
		}
	}
}

// TestSFCImbalanceBound checks the documented balance guarantee of the
// curve cut: Wmax ≤ ΣW/k + max(Wcomp).
func TestSFCImbalanceBound(t *testing.T) {
	m := meshgen.Box(6, 6, 6, geom.Vec3{X: 1, Y: 1, Z: 1})
	g := dual.Build(m)
	a := adapt.New(m)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 1, Y: 1, Z: 1}, Radius: 0.6}, adapt.MarkRefine)
	a.Refine()
	g.UpdateWeights(m)

	var total, maxW int64
	for _, w := range g.Wcomp {
		total += w
		if w > maxW {
			maxW = w
		}
	}
	for _, c := range []Method{MethodMortonSFC, MethodHilbertSFC} {
		for _, k := range []int{2, 5, 8, 16} {
			asg := NewSFCWorkers(g, c, 0).Repartition(g, k)
			ws := Weights(g, asg, k)
			bound := float64(total)/float64(k) + float64(maxW) + 1e-6
			for p, w := range ws {
				if float64(w) > bound {
					t.Errorf("%v k=%d: part %d weight %d exceeds bound %.1f", c, k, p, w, bound)
				}
			}
		}
	}
}

// TestCurveCutRotorBound pins the curve methods' balance contract on the
// heavy-tailed weights adaption produces: over four Local_1-style cycles
// on a toy rotor (7260 roots), the morton and hilbert cuts at P = 8, 64
// and 2048 must stay within Imbalance ≤ 1 + k·max(Wcomp)/ΣW and balance no
// worse than the midpoint window cut of the same curve order.
func TestCurveCutRotorBound(t *testing.T) {
	rp := meshgen.DefaultRotor()
	rp.NR, rp.NTheta, rp.NZ = 10, 11, 11
	m := meshgen.RotorDisk(rp)
	g := dual.Build(m)
	centre := geom.Vec3{X: 1.4 * math.Cos(rp.Sweep/2), Y: 1.4 * math.Sin(rp.Sweep/2)}
	curves := []Method{MethodMortonSFC, MethodHilbertSFC}
	var cuts []*SFCPartitioner
	for _, c := range curves {
		cuts = append(cuts, NewSFCWorkers(g, c, 2))
	}
	a := adapt.New(m)
	for cycle := 1; cycle <= 4; cycle++ {
		a.MarkRegion(adapt.SphereForFraction(m, centre, 0.05), adapt.MarkRefine)
		a.Refine()
		g.UpdateWeights(m)
		total, maxW := int64(0), slices.Max(g.Wcomp)
		for _, w := range g.Wcomp {
			total += w
		}
		for i, s := range cuts {
			for _, k := range []int{8, 64, 2048} {
				asg := s.Repartition(g, k)
				bound := 1 + float64(k)*float64(maxW)/float64(total)
				imb := Imbalance(g, asg, k)
				mid := make([]int, k+1)
				mid[k] = g.N
				midpointCut(s.prefix, mid)
				midImb := float64(wmax(s.prefix, mid)) * float64(k) / float64(total)
				if imb > bound+1e-9 || imb > midImb+1e-9 {
					t.Errorf("cycle %d %v k=%d: imbalance %.4f, bound %.4f, midpoint cut %.4f",
						cycle, curves[i], k, imb, bound, midImb)
				}
			}
		}
	}
}

func TestImbalancePerfect(t *testing.T) {
	g := &dual.Graph{
		N:          4,
		Wcomp:      []int64{1, 1, 1, 1},
		Wremap:     []int64{1, 1, 1, 1},
		EdgeWeight: 1,
	}
	setRows(g, [][]int32{{1}, {0, 2}, {1, 3}, {2}})
	asg := Assignment{0, 0, 1, 1}
	if imb := Imbalance(g, asg, 2); imb != 1 {
		t.Errorf("imbalance = %g, want 1", imb)
	}
	if cut := EdgeCut(g, asg); cut != 1 {
		t.Errorf("cut = %d, want 1", cut)
	}
	w := Weights(g, asg, 2)
	if w[0] != 2 || w[1] != 2 {
		t.Errorf("weights = %v", w)
	}
}

// TestRefinersImproveCut pins the partition-facing contract of the one
// refiner a partitioner runs on a mesh dual, classic FM as multilevel
// charges it: starting from a deliberately bad odd/even striping, it must
// reduce the cut without breaking balance. (The curve methods run no
// refiner; FM's algorithmic contracts live in fm_test.go.)
func TestRefinersImproveCut(t *testing.T) {
	g := testGraph(t)
	asg := make(Assignment, g.N)
	for i := range asg {
		asg[i] = int32(i % 2)
	}
	before := EdgeCut(g, asg)
	ops := fmRefine(g, asg, 2, 8)
	if after := EdgeCut(g, asg); after >= before {
		t.Errorf("fm did not improve cut: %d -> %d", before, after)
	}
	if imb := Imbalance(g, asg, 2); imb > 1.2 {
		t.Errorf("fm broke balance: %.3f", imb)
	}
	if ops <= 0 {
		t.Errorf("fm: bad op accounting %d", ops)
	}
}

func TestPartitionSinglePart(t *testing.T) {
	g := testGraph(t)
	asg := Partition(g, 1, MethodMultilevel)
	for _, p := range asg {
		if p != 0 {
			t.Fatal("k=1 must assign everything to part 0")
		}
	}
}

// TestPartitionOversizedK documents the contract for callers that violate
// k ≤ N: the result may contain empty parts, but no method may panic and
// every entry must still land in [0, k).
func TestPartitionOversizedK(t *testing.T) {
	g := &dual.Graph{
		N:          2,
		Wcomp:      []int64{3, 5},
		Wremap:     []int64{3, 5},
		EdgeWeight: 1,
		Centroid:   []geom.Vec3{{X: 0}, {X: 1}},
	}
	setRows(g, [][]int32{{1}, {0}})
	for _, m := range Methods {
		for _, k := range []int{3, 4, 9} {
			asg := Partition(g, k, m)
			if len(asg) != g.N {
				t.Fatalf("%v k=%d: assignment length %d", m, k, len(asg))
			}
			for v, p := range asg {
				if p < 0 || int(p) >= k {
					t.Errorf("%v k=%d: vertex %d in invalid part %d", m, k, v, p)
				}
			}
		}
	}
}

// graphOf builds a unit-weight graph from symmetric rows.
func graphOf(rows [][]int32) *dual.Graph {
	g := &dual.Graph{N: len(rows), Wcomp: make([]int64, len(rows)), EdgeWeight: 1}
	for i := range g.Wcomp {
		g.Wcomp[i] = 1
	}
	setRows(g, rows)
	return g
}

// pathRows returns the rows of the n-vertex path 0 – 1 – … – n-1.
func pathRows(n int) [][]int32 {
	rows := make([][]int32, n)
	for i := 0; i+1 < n; i++ {
		rows[i] = append(rows[i], int32(i+1))
		rows[i+1] = append(rows[i+1], int32(i))
	}
	return rows
}

// TestLevelSetsPathIsMonotone: the level sets of a path order it. The
// first sweep from vertex 0 ends at the far end, and the distances from
// there fall by one per step along the path.
func TestLevelSetsPathIsMonotone(t *testing.T) {
	const n = 20
	g := graphOf(pathRows(n))
	sub := make([]int32, n)
	for i := range sub {
		sub[i] = int32(i)
	}
	vals, ops := newLevelSets(g).embed(sub)
	for i, v := range vals {
		if v != float64(n-1-i) {
			t.Fatalf("values %v, want the distances from vertex %d", vals, n-1)
		}
	}
	// Two sweeps, each visiting every vertex once at 1 + deg.
	if want := int64(2 * (n + 2*(n-1))); ops != want {
		t.Errorf("ops %d, want %d", ops, want)
	}
}

// TestLevelSetsBisectDumbbell: two 5-cliques joined by one edge split at
// the bridge, each clique whole in its own part.
func TestLevelSetsBisectDumbbell(t *testing.T) {
	rows := make([][]int32, 10)
	link := func(a, b int) {
		rows[a] = append(rows[a], int32(b))
		rows[b] = append(rows[b], int32(a))
	}
	for i := range 5 {
		for j := i + 1; j < 5; j++ {
			link(i, j)
			link(i+5, j+5)
		}
	}
	link(0, 5)
	asg, _ := levelSetCounted(graphOf(rows), 2)
	for i := 1; i < 5; i++ {
		if asg[i] != asg[0] || asg[i+5] != asg[5] {
			t.Fatalf("assignment %v separates a clique", asg)
		}
	}
	if asg[0] == asg[5] {
		t.Errorf("assignment %v puts both cliques in part %d", asg, asg[0])
	}
}

// TestLevelSetsDisconnectedSubset: a subset of the path 0 – … – 9 that
// induces two components. The first is embedded from its far end; the
// second is searched once, from its lowest position, with its distances
// past the first's, so each component is contiguous in the sort order.
// The scratch's index is clean afterwards.
func TestLevelSetsDisconnectedSubset(t *testing.T) {
	g := graphOf(pathRows(10))
	s := newLevelSets(g)
	vals, ops := s.embed([]int32{0, 1, 2, 7, 8, 9})
	if want := []float64{2, 1, 0, 3, 4, 5}; !slices.Equal(vals, want) {
		t.Errorf("values %v, want %v", vals, want)
	}
	// The first sweep visits 0, 1, 2 at 1 + deg = 2 + 3 + 3, the second
	// visits them again, and the third visits 7, 8, 9 at 3 + 3 + 2.
	if ops != 24 {
		t.Errorf("ops %d, want 24", ops)
	}
	for v, l := range s.local {
		if l != -1 {
			t.Fatalf("local[%d] = %d after the embedding, want -1", v, l)
		}
	}
}

// TestLevelSetsFewerVerticesThanParts: a 3-vertex path cut into 5 parts
// puts every vertex in a part of its own and leaves two parts empty,
// where the bisection reaches subsets with no vertex at all.
func TestLevelSetsFewerVerticesThanParts(t *testing.T) {
	const k = 5
	asg, _ := levelSetCounted(graphOf(pathRows(3)), k)
	seen := map[int32]bool{}
	for v, p := range asg {
		if p < 0 || p >= k || seen[p] {
			t.Fatalf("vertex %d in part %d: assignment %v", v, p, asg)
		}
		seen[p] = true
	}
}

// refSortByKey is the (key, index) order sortByKey must produce, by a
// comparison sort.
func refSortByKey(keys []uint64) []int32 {
	idx := make([]int32, len(keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(a, b))
	})
	return idx
}

// checkSortByKey compares sortByKey with the reference on a copy of keys.
func checkSortByKey(t testing.TB, name string, keys []uint64) {
	t.Helper()
	want := refSortByKey(keys)
	if got := sortByKey(slices.Clone(keys)); !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): radix order differs from the (key, index) reference", name, len(keys))
	}
}

// genKeys returns n keys, key i drawn from key(i).
func genKeys(n int, key func(i int) uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = key(i)
	}
	return keys
}

// TestSortMatchesReference holds the curve-order radix sort to a
// comparison sort on (key, index): empty and single inputs, keys sharing
// their high bytes (those passes skipped), and 2¹⁶+3 keys with heavy
// duplicates over the full 64-bit range.
func TestSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := genKeys(97, func(int) uint64 { return rng.Uint64() })
	for name, keys := range map[string][]uint64{
		"empty":             {},
		"one":               {42},
		"shared-high-bytes": genKeys(5000, func(int) uint64 { return 0x7f3a<<48 | uint64(rng.Intn(1<<20)) }),
		"duplicates":        genKeys(1<<16+3, func(int) uint64 { return pool[rng.Intn(len(pool))] }),
	} {
		checkSortByKey(t, name, keys)
	}
}

// TestSortDuplicateKeyDeterminism pins the tie-break: with every key equal
// (every digit skipped) the order is exactly index order.
func TestSortDuplicateKeyDeterminism(t *testing.T) {
	idx := sortByKey(genKeys(1000, func(int) uint64 { return 0xdeadbeef }))
	for i, v := range idx {
		if v != int32(i) {
			t.Fatalf("equal-key tie-break broken at %d: got index %d", i, v)
		}
	}
}

// TestSortAlreadySortedAndReversed covers sorted and reversed runs.
func TestSortAlreadySortedAndReversed(t *testing.T) {
	checkSortByKey(t, "ascending", genKeys(5000, func(i int) uint64 { return uint64(i) << 40 }))
	checkSortByKey(t, "descending", genKeys(5000, func(i int) uint64 { return uint64(5000-i) << 40 }))
}

// TestSortIndexByKey checks the index order the partitioner builds
// directly, without the reference: a permutation of 0..n-1 in (key, index)
// order, on dense duplicates.
func TestSortIndexByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := genKeys(4096+321, func(int) uint64 { return rng.Uint64() % 64 })
	orig := slices.Clone(keys)
	idx := sortByKey(keys)
	seen := make([]bool, len(orig))
	for i, v := range idx {
		if seen[v] {
			t.Fatalf("index %d appears twice", v)
		}
		seen[v] = true
		if i == 0 {
			continue
		}
		a, b := idx[i-1], v
		if orig[a] > orig[b] || (orig[a] == orig[b] && a >= b) {
			t.Fatalf("order violated at %d: (%d,%d) then (%d,%d)", i, orig[a], a, orig[b], b)
		}
	}
}

// TestSFCCutAllocatesOnlyAssignment pins the cut's scratch to the
// SFCPartitioner: once the boundary slab has grown to k, a cut allocates
// its Assignment and nothing else, whatever the weights, and a cut into a
// kept Assignment (the Repartitioner's) allocates nothing.
func TestSFCCutAllocatesOnlyAssignment(t *testing.T) {
	g := gridGraph(24, 24, 16, 7)
	s := NewSFCWorkers(g, MethodHilbertSFC, 2)
	var kept Assignment
	for _, k := range []int{2, 61, 61, 16} {
		if a := testing.AllocsPerRun(5, func() { s.cut(g, k, nil) }); a != 1 {
			t.Errorf("k=%d: cut made %.0f allocations, want 1 (the Assignment)", k, a)
		}
		if a := testing.AllocsPerRun(5, func() { kept, _ = s.cut(g, k, kept) }); a != 0 {
			t.Errorf("k=%d: cut into a kept Assignment made %.0f allocations, want 0", k, a)
		}
		g.Wcomp[k] *= 9
	}
}

// TestRepartitionerContract pins what a Repartitioner caches and what it
// bills, against the one-shot PartitionCounted: Initial is the one-shot
// assignment and charges nothing, the first Repartition is the one-shot
// call in assignment and ops (curve build included), priced as the cut's
// serial work plus the build's parallel sort on the k ranks, and a later
// Repartition at a smaller k — the survivor count after a crash — under
// changed weights is the one-shot assignment at that k, charged without
// the curve build.
func TestRepartitionerContract(t *testing.T) {
	const k, k2 = 16, 13
	var opt Options
	mdl := machine.SP2()
	for _, m := range Methods {
		g := gridGraph(24, 24, 16, 5)
		r := NewRepartitioner(g, m, opt)
		want, wantOps := PartitionCounted(g, k, m, opt)
		if got := r.Initial(k); !slices.Equal(got, want) {
			t.Errorf("%v: Initial(%d) differs from the one-shot partition", m, k)
		}
		got, ops, secs := r.Repartition(k, nil, mdl)
		wantSecs := ops.Time(mdl)
		if c, ok := m.Curve(); ok {
			s := NewSFCWorkers(g, c, 0)
			cut := ops
			cut.Total -= s.BuildOps().Total
			wantSecs = cut.Time(mdl) + CurveBuildTime(g.N, k, mdl)
		}
		if !slices.Equal(got, want) || ops != wantOps || secs != wantSecs {
			t.Errorf("%v: first Repartition(%d) charged %+v in %.17gs, one-shot %+v in %.17gs (assignments equal: %v)",
				m, k, ops, secs, wantOps, wantSecs, slices.Equal(got, want))
		}

		for v := 0; v < g.N/8; v++ {
			g.Wcomp[v] *= 16 // an adaption step refines one corner
		}
		want, wantOps = PartitionCounted(g, k2, m, opt)
		if c, ok := m.Curve(); ok {
			wantOps.Total -= NewSFCWorkers(g, c, 0).BuildOps().Total
		}
		got, ops, secs = r.Repartition(k2, nil, mdl)
		if !slices.Equal(got, want) {
			t.Errorf("%v: Repartition(%d) differs from the one-shot partition", m, k2)
		}
		if ops != wantOps || secs != ops.Time(mdl) {
			t.Errorf("%v: Repartition(%d) charged %+v in %gs, want %+v serially", m, k2, ops, secs, wantOps)
		}
	}
}

// TestCurveBuildCharge pins the curve build's price, the bitonic
// merge-split sort on k ranks, against its closed form written out by
// hand: m = ⌈n/k⌉ records a rank, L = ⌈log2 k⌉, S = L(L+1)/2 stages, and
// (m + m·⌈log2 m⌉ + S·m)·CompOp + S·(Tsetup + 2m·Tlat). At k = 1 it is the
// serial price of the build's work, with more ranks than records each
// holds one, and a rerun prices the same. On the rotor (60 984 roots) and
// on sweep-coarsen's 9 216-tet box at the P the workloads run, it is
// below the serial price.
func TestCurveBuildCharge(t *testing.T) {
	mdl := machine.SP2()
	form := func(m, lgm, stages int64) float64 {
		return float64(m+m*lgm+stages*m)*mdl.CompOp + float64(stages)*(mdl.Tsetup+float64(2*m)*mdl.Tlat)
	}
	const n = 9216
	for _, c := range []struct {
		k              int
		m, lgm, stages int64
	}{
		{2, 4608, 13, 1},
		{3, 3072, 12, 3},
		{8, 1152, 11, 6},
		{2048, 5, 3, 66},
		{16384, 1, 0, 105},
	} {
		if got, want := CurveBuildTime(n, c.k, mdl), form(c.m, c.lgm, c.stages); got != want {
			t.Errorf("k=%d: build priced %.17g, want %.17g", c.k, got, want)
		}
		if a, b := CurveBuildTime(n, c.k, mdl), CurveBuildTime(n, c.k, mdl); a != b {
			t.Errorf("k=%d: reruns priced %.17g and %.17g", c.k, a, b)
		}
	}
	g := gridGraph(24, 24, 16, 5) // n vertices
	if got, want := CurveBuildTime(g.N, 1, mdl), NewSFCWorkers(g, MethodHilbertSFC, 0).BuildOps().Time(mdl); got != want {
		t.Errorf("k=1: build priced %.17g, want the serial %.17g", got, want)
	}

	for _, c := range []struct{ n, k int }{{60984, 8}, {60984, 16}, {60984, 2048}, {9216, 16}} {
		serial := machine.Ops{Total: int64(c.n) + int64(c.n)*int64(log2ceil(c.n))}.Time(mdl)
		if got := CurveBuildTime(c.n, c.k, mdl); got >= serial {
			t.Errorf("n=%d k=%d: build priced %.4gs, not below the serial %.4gs", c.n, c.k, got, serial)
		}
	}
}

// TestRepartitionFromOwners pins when Repartition uses the owners it is
// given. The curves ignore them. Multilevel returns owners
// that fit the cap unchanged and rebalances unbalanced ones, moving less
// than the fresh partition; it partitions from scratch when an owner
// names a dead rank (−1), charging the scan up to it, and when a part
// would average fewer than diffuseMinVerts vertices.
func TestRepartitionFromOwners(t *testing.T) {
	const k = 8
	var opt Options
	mdl := machine.SP2()
	g := gridGraph(24, 24, 16, 5) // 9 216 vertices, 1 152 a part
	owners := Partition(g, k, MethodHilbertSFC)
	for _, m := range []Method{MethodMortonSFC, MethodHilbertSFC} {
		want, wantOps := PartitionCounted(g, k, m, opt)
		if got, ops, _ := NewRepartitioner(g, m, opt).Repartition(k, owners, mdl); !slices.Equal(got, want) || ops != wantOps {
			t.Errorf("%v: owners changed the partition or its charge", m)
		}
	}

	ml := NewRepartitioner(g, MethodMultilevel, opt)
	if got, _, _ := ml.Repartition(k, owners, mdl); !slices.Equal(got, owners) {
		t.Error("multilevel moved owners that fit the cap")
	}
	for v := 0; v < g.N/8; v++ {
		g.Wcomp[v] *= 16 // an adaption step refines one corner
	}
	scratch, scratchOps := PartitionCounted(g, k, MethodMultilevel, opt)
	got, _, _ := ml.Repartition(k, owners, mdl)
	moved := func(asg Assignment) (n int) {
		for v := range asg {
			if asg[v] != owners[v] {
				n++
			}
		}
		return n
	}
	if imb := Imbalance(g, got, k); imb > diffuseTol+1e-9 || moved(got) >= moved(scratch) {
		t.Errorf("rebalanced to imbalance %.4f moving %d vertices; from scratch %d", imb, moved(got), moved(scratch))
	}

	dead := slices.Clone(owners)
	dead[100] = -1
	if got, ops, secs := ml.Repartition(k, dead, mdl); !slices.Equal(got, scratch) || ops.Total != scratchOps.Total+101 || secs != ops.Time(mdl) {
		t.Errorf("an owner naming a dead rank: charged %+v in %gs, want the fresh partition's %+v plus 101, serially", ops, secs, scratchOps)
	}
	fine := g.N/diffuseMinVerts + 1
	want, wantOps := PartitionCounted(g, fine, MethodMultilevel, opt)
	if got, ops, _ := ml.Repartition(fine, Partition(g, fine, MethodHilbertSFC), mdl); !slices.Equal(got, want) || ops != wantOps {
		t.Errorf("k=%d (%d vertices a part): not the fresh partition", fine, g.N/fine)
	}
}

// TestPartitionCountedReportsWork pins the honest-cost contract: every
// backend reports nonzero work, and Partition returns the same assignment
// as PartitionCounted.
func TestPartitionCountedReportsWork(t *testing.T) {
	g := testGraph(t)
	for _, m := range Methods {
		asg, ops := PartitionCounted(g, 4, m, Options{})
		if ops.Total <= 0 {
			t.Errorf("%v: zero cost reported: %+v", m, ops)
		}
		if ops.Total < int64(g.N) {
			t.Errorf("%v: total ops %d below one visit per vertex (n=%d)", m, ops.Total, g.N)
		}
		if ops.Mem > ops.Total || ops.Mem < 0 {
			t.Errorf("%v: memory-bound share out of range: %+v", m, ops)
		}
		// Multilevel must report its FM refinement in the Mem share; the
		// curve cut refines nothing and carries none.
		refines := m == MethodMultilevel
		if refines && ops.Mem <= 0 {
			t.Errorf("%v: refinement work missing from the Mem share: %+v", m, ops)
		}
		if !refines && ops.Mem != 0 {
			t.Errorf("%v: unexpected Mem share %+v for a refinement-free backend", m, ops)
		}
		plain := Partition(g, 4, m)
		for v := range asg {
			if plain[v] != asg[v] {
				t.Fatalf("%v: Partition and PartitionCounted disagree at vertex %d", m, v)
			}
		}
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range Methods {
		if m.String() == "unknown" {
			t.Errorf("method %d has no name", m)
		}
		got, ok := MethodByName(m.String())
		if !ok || got != m {
			t.Errorf("MethodByName(%q) = %v, %v", m.String(), got, ok)
		}
	}
	for _, name := range []string{"nope", "spectral", "graphgrow", "inertial"} {
		if _, ok := MethodByName(name); ok {
			t.Errorf("MethodByName accepted %q", name)
		}
	}
}
