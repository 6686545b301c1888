package partition

import (
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/refine"
	"plum/internal/sfc"
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

func TestPartitionQualityOrdering(t *testing.T) {
	// Spectral/multilevel should not be wildly worse than graph growing
	// on a regular box (sanity on cut quality).
	g := testGraph(t)
	k := 8
	cutGrow := EdgeCut(g, Partition(g, k, MethodGraphGrow))
	cutML := EdgeCut(g, Partition(g, k, MethodMultilevel))
	if cutML > 3*cutGrow {
		t.Errorf("multilevel cut %d vs graphgrow %d: multilevel much worse", cutML, cutGrow)
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

	if Imbalance(g, Partition(g, 8, MethodGraphGrow), 8) > 1.5 {
		// Graph growing is weight-aware; the refined corner must not
		// produce a wildly imbalanced partition.
		t.Error("graphgrow ignored adapted weights")
	}
	for _, meth := range []Method{MethodInertial, MethodMultilevel} {
		asg := Partition(g, 8, meth)
		if imb := Imbalance(g, asg, 8); imb > 1.6 {
			t.Errorf("%s: imbalance %.3f on adapted weights", meth, imb)
		}
	}
	// Multilevel's coarse-graph solver, held to the same bound directly.
	asg, _ := spectralCounted(g, 8)
	if imb := Imbalance(g, asg, 8); imb > 1.6 {
		t.Errorf("spectral bisection: imbalance %.3f on adapted weights", imb)
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
	for _, c := range []sfc.Curve{sfc.Morton, sfc.Hilbert} {
		s := NewSFCWorkers(g, c, 0)
		sortOps := s.LastOps
		asg := s.Repartition(g, 8)
		if s.LastOps >= sortOps {
			t.Errorf("%v: incremental scan (%d ops) not cheaper than sort (%d ops)", c, s.LastOps, sortOps)
		}
		checkAssignment(t, g, asg, 8, c.String(), 1.35)

		// Refine a corner; the cached order must rebalance the new weights.
		a := adapt.New(m)
		a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.5}, adapt.MarkRefine)
		a.Refine()
		g.UpdateWeights(m)
		asg2 := s.Repartition(g, 8)
		refine.NewBandFM(0).Refine(g, asg2, 8, 2)
		checkAssignment(t, g, asg2, 8, c.String()+"/adapted", 1.10)

		scratch, _ := sfcCounted(g, 8, c, Options{})
		if imbI, imbS := Imbalance(g, asg2, 8), Imbalance(g, scratch, 8); imbI > imbS*1.05 {
			t.Errorf("%v: incremental imbalance %.3f much worse than scratch %.3f", c, imbI, imbS)
		}
	}
}

// TestSFCImbalanceBound checks the documented balance guarantee of the
// raw chunk cut (no FM pass): Wmax ≤ ΣW/k + max(Wcomp).
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
	for _, c := range []sfc.Curve{sfc.Morton, sfc.Hilbert} {
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

func TestImbalancePerfect(t *testing.T) {
	g := &dual.Graph{
		N:          4,
		Adj:        [][]int32{{1}, {0, 2}, {1, 3}, {2}},
		Wcomp:      []int64{1, 1, 1, 1},
		Wremap:     []int64{1, 1, 1, 1},
		EdgeWeight: 1,
	}
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

// TestRefinersImproveCut pins the partition-facing contract of every
// refinement backend on a mesh dual: starting from a deliberately bad
// odd/even striping, the FM-family backends must reduce the cut, and
// none may break balance. (The per-backend algorithmic contracts live in
// internal/refine's own tests.)
func TestRefinersImproveCut(t *testing.T) {
	g := testGraph(t)
	for _, name := range refine.Names {
		r, ok := refine.ByName(name, 0)
		if !ok {
			t.Fatalf("refiner %q missing", name)
		}
		asg := make(Assignment, g.N)
		for i := range asg {
			asg[i] = int32(i % 2)
		}
		before := EdgeCut(g, asg)
		ops := r.Refine(g, asg, 2, 8)
		after := EdgeCut(g, asg)
		if name != "diffusion" && after >= before {
			t.Errorf("%s did not improve cut: %d -> %d", name, before, after)
		}
		if imb := Imbalance(g, asg, 2); imb > 1.2 {
			t.Errorf("%s broke balance: %.3f", name, imb)
		}
		if ops.Total <= 0 || ops.Crit <= 0 || ops.Crit > ops.Total {
			t.Errorf("%s: bad op accounting %+v", name, ops)
		}
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
		Adj:        [][]int32{{1}, {0}},
		Wcomp:      []int64{3, 5},
		Wremap:     []int64{3, 5},
		EdgeWeight: 1,
		Centroid:   []geom.Vec3{{X: 0}, {X: 1}},
	}
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

func TestAgglomerate(t *testing.T) {
	g := testGraph(t)
	cg, group := g.Agglomerate(8)
	if cg.N >= g.N {
		t.Fatalf("agglomeration did not shrink: %d -> %d", g.N, cg.N)
	}
	if len(group) != g.N {
		t.Fatal("group map wrong length")
	}
	if cg.TotalWcomp() != g.TotalWcomp() {
		t.Errorf("weight not conserved: %d != %d", cg.TotalWcomp(), g.TotalWcomp())
	}
	// Partitioning the agglomerated graph must still work.
	asg := Partition(cg, 4, MethodMultilevel)
	checkAssignment(t, cg, asg, 4, "agglomerated", 1.6)
}

// TestSFCWorkerParity is the determinism contract of the parallel
// pipeline: the curve order and every Assignment must be identical at any
// worker count, on a graph large enough to engage the parallel sample
// sort and the chunked cut (n > the serial cutoffs), with heavy-tailed
// weights and duplicate curve keys.
func TestSFCWorkerParity(t *testing.T) {
	g := gridGraph(24, 24, 16, 5) // 9216 vertices > repartSerialCutoff
	for _, c := range []sfc.Curve{sfc.Morton, sfc.Hilbert} {
		ref := NewSFCWorkers(g, c, 1)
		for _, w := range []int{2, 3, 4, 8} {
			s := NewSFCWorkers(g, c, w)
			for _, k := range []int{1, 2, 7, 16, 61} {
				want := ref.Repartition(g, k)
				got := s.Repartition(g, k)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%v workers=%d k=%d: vertex %d in part %d, serial says %d",
							c, w, k, v, got[v], want[v])
					}
				}
			}
			if s.LastCritOps > s.LastOps {
				t.Errorf("%v workers=%d: critical path %d exceeds total %d",
					c, w, s.LastCritOps, s.LastOps)
			}
		}
	}
}

// TestSFCWorkerParityAfterWeightUpdate re-runs the parity check after the
// weights change (the incremental-repartition path the framework actually
// exercises every adaption step).
func TestSFCWorkerParityAfterWeightUpdate(t *testing.T) {
	g := gridGraph(24, 24, 16, 11)
	serial := NewSFCWorkers(g, sfc.Hilbert, 1)
	par4 := NewSFCWorkers(g, sfc.Hilbert, 4)
	// Mutate weights like a refinement step would: blow up one corner.
	for v := 0; v < g.N/8; v++ {
		g.Wcomp[v] *= 64
	}
	for _, k := range []int{2, 13, 32} {
		want := serial.Repartition(g, k)
		got := par4.Repartition(g, k)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("k=%d: parallel cut diverges from serial at vertex %d after weight update", k, v)
			}
		}
	}
}

// TestSFCCritOpsHonestOnSerialFallback pins the cost model to the
// execution path: when the graph is too small for the parallel phases
// (every cutoff wins), a large worker knob must NOT discount the critical
// path — the work ran serially and must be charged serially.
func TestSFCCritOpsHonestOnSerialFallback(t *testing.T) {
	g := gridGraph(8, 8, 8, 3) // 512 vertices: below every parallel cutoff
	s := NewSFCWorkers(g, sfc.Morton, 8)
	if s.LastCritOps != s.LastOps {
		t.Errorf("build: crit %d != total %d despite serial fallback", s.LastCritOps, s.LastOps)
	}
	s.Repartition(g, 4)
	if s.LastCritOps != s.LastOps {
		t.Errorf("repartition: crit %d != total %d despite serial fallback", s.LastCritOps, s.LastOps)
	}
	// And on a graph large enough to engage the parallel paths, the
	// discount must appear.
	big := gridGraph(24, 24, 16, 3) // 9216 > every cutoff
	sb := NewSFCWorkers(big, sfc.Morton, 8)
	if sb.LastCritOps >= sb.LastOps {
		t.Errorf("parallel build not discounted: crit %d vs total %d", sb.LastCritOps, sb.LastOps)
	}
	sb.Repartition(big, 4)
	if sb.LastCritOps >= sb.LastOps {
		t.Errorf("parallel repartition not discounted: crit %d vs total %d", sb.LastCritOps, sb.LastOps)
	}
}

// TestPartitionCountedReportsWork pins the honest-cost contract: every
// backend reports nonzero total and critical-path ops, with Crit ≤ Total,
// and Partition returns the same assignment as PartitionCounted.
func TestPartitionCountedReportsWork(t *testing.T) {
	g := testGraph(t)
	for _, m := range Methods {
		asg, ops := PartitionCounted(g, 4, m, Options{})
		if ops.Total <= 0 || ops.Crit <= 0 {
			t.Errorf("%v: zero cost reported: %+v", m, ops)
		}
		if ops.Crit > ops.Total {
			t.Errorf("%v: critical path %d exceeds total %d", m, ops.Crit, ops.Total)
		}
		if ops.Total < int64(g.N) {
			t.Errorf("%v: total ops %d below one visit per vertex (n=%d)", m, ops.Total, g.N)
		}
		if ops.MemTotal > ops.Total || ops.MemCrit > ops.Crit || ops.MemTotal < 0 || ops.MemCrit < 0 {
			t.Errorf("%v: memory-bound share out of range: %+v", m, ops)
		}
		// The backends that smooth their cut must report the refinement
		// work in the Mem share; the pure bisection backends carry none.
		refines := m != MethodInertial
		if refines && (ops.MemTotal <= 0 || ops.MemCrit <= 0) {
			t.Errorf("%v: refinement work missing from the Mem share: %+v", m, ops)
		}
		if !refines && ops.MemTotal != 0 {
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
	for _, name := range []string{"nope", "spectral"} {
		if _, ok := MethodByName(name); ok {
			t.Errorf("MethodByName accepted %q", name)
		}
	}
}
