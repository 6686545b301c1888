package experiments

import (
	"strings"
	"testing"

	"plum/internal/adapt"
	"plum/internal/partition"
)

// These tests verify the paper's headline claims on the regenerated
// experiments (shape, not absolute numbers — see EXPERIMENTS.md).

func TestTable1Claims(t *testing.T) {
	tb := RunTable1()
	rows := map[adapt.Strategy]Table1Row{}
	for _, r := range tb.Rows {
		rows[r.Strategy] = r
	}
	l1, l2, rnd := rows[adapt.Local1], rows[adapt.Local2], rows[adapt.Random]

	// Initial mesh at paper scale.
	if l1.InitElems < 58000 || l1.InitElems > 64000 {
		t.Errorf("initial elements %d not at paper scale (60,968)", l1.InitElems)
	}
	// Local_1 refines ≈35% more elements and coarsening restores exactly.
	growth1 := float64(l1.RefinedElems) / float64(l1.InitElems)
	if growth1 < 1.2 || growth1 > 1.6 {
		t.Errorf("Local_1 growth %.2f, paper 1.35", growth1)
	}
	if l1.CoarsenedElems != l1.InitElems || l1.CoarsenedEdge != l1.InitEdges {
		t.Errorf("Local_1 coarsening did not restore the initial mesh: %+v", l1)
	}
	// Local_2 refines ≈3.3× and coarsens to ≈half.
	growth2 := float64(l2.RefinedElems) / float64(l2.InitElems)
	if growth2 < 2.8 || growth2 > 4.2 {
		t.Errorf("Local_2 growth %.2f, paper 3.3", growth2)
	}
	shrink2 := float64(l2.CoarsenedElems) / float64(l2.RefinedElems)
	if shrink2 < 0.4 || shrink2 > 0.7 {
		t.Errorf("Local_2 coarsening ratio %.2f, paper ≈0.5", shrink2)
	}
	// Random is tuned to approximately match Local_2's sizes.
	if ratio := float64(rnd.RefinedElems) / float64(l2.RefinedElems); ratio < 0.8 || ratio > 1.25 {
		t.Errorf("Random refined size off Local_2's by %.2f×", ratio)
	}
	if ratio := float64(rnd.CoarsenedElems) / float64(l2.CoarsenedElems); ratio < 0.7 || ratio > 1.35 {
		t.Errorf("Random coarsened size off Local_2's by %.2f×", ratio)
	}
	if !strings.Contains(tb.String(), "After Refinement") {
		t.Error("table rendering broken")
	}
}

func TestFig8Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	f := RunFig8()
	last := func(s adapt.Strategy) Fig8Point {
		c := f.Curves[s]
		return c[len(c)-1]
	}
	r, l2, l1 := last(adapt.Random), last(adapt.Local2), last(adapt.Local1)
	// Paper: 35.5× at P=64 for Random; ordering Random ≥ Local_2 > Local_1.
	if r.SpeedupR < 20 {
		t.Errorf("Random speedup %.1f at P=64, paper 35.5", r.SpeedupR)
	}
	if !(r.SpeedupR >= l2.SpeedupR && l2.SpeedupR > l1.SpeedupR) {
		t.Errorf("speedup ordering broken: R=%.1f L2=%.1f L1=%.1f", r.SpeedupR, l2.SpeedupR, l1.SpeedupR)
	}
	// Coarsening improves markedly over refinement for Local_1 (the
	// paper's observation that coarsening rebalances it).
	if l1.SpeedupC <= l1.SpeedupR*0.9 {
		t.Errorf("Local_1 coarsening speedup %.1f not better than refinement %.1f", l1.SpeedupC, l1.SpeedupR)
	}
	// Monotone-ish speedups: P=64 beats P=8 for every strategy.
	for s, c := range f.Curves {
		if c[len(c)-1].SpeedupR < c[3].SpeedupR {
			t.Errorf("%v refinement speedup regresses from P=8 to P=64", s)
		}
	}
	if !strings.Contains(f.String(), "refinement") {
		t.Error("fig8 rendering broken")
	}
}

func TestFig9Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	f := RunFig9()
	for s, curve := range f.Curves {
		// Reassignment grows with P but stays negligible vs adaption +
		// remapping even at P=64 (the paper's claim).
		lastPt := curve[len(curve)-1]
		if lastPt.Reassign > 0.1*(lastPt.Adaption+lastPt.Remap) {
			t.Errorf("%v: reassignment %.4g not negligible at P=64", s, lastPt.Reassign)
		}
		for i := 1; i < len(curve); i++ {
			if curve[i].Reassign < curve[i-1].Reassign {
				t.Errorf("%v: reassignment time not increasing with P", s)
				break
			}
		}
		// Remapping first rises then falls: max not at the last point.
		maxIdx := 0
		for i, pt := range curve {
			if pt.Remap > curve[maxIdx].Remap {
				maxIdx = i
			}
		}
		if maxIdx == len(curve)-1 {
			t.Errorf("%v: remapping time still rising at P=64 (no turnover)", s)
		}
		// Adaption time decreases with more processors end-to-end.
		if curve[len(curve)-1].Adaption >= curve[0].Adaption {
			t.Errorf("%v: adaption time did not fall from P=2 to P=64", s)
		}
	}
}

func TestFig10Claims(t *testing.T) {
	f := RunFig10()
	var worstObj = 1.0
	for _, pt := range f.Points {
		// Heuristic objective within a few percent of optimal (paper: <3%).
		ratio := float64(pt.HeuristicObj) / float64(pt.OptimalObj)
		if ratio < worstObj {
			worstObj = ratio
		}
		if pt.OptimalObj < pt.HeuristicObj {
			t.Fatalf("P=%d F=%d: optimal objective below heuristic", pt.P, pt.F)
		}
	}
	if worstObj < 0.94 {
		t.Errorf("heuristic objective as low as %.3f of optimal (paper: ≥0.97)", worstObj)
	}
	// Optimal costs ≈2 orders of magnitude more time at the large end.
	big := f.Points[len(f.Points)-1] // P=64, F=8
	if big.OptimalTime < 20*big.HeuristicTime {
		t.Errorf("optimal/heuristic time ratio %.1f at P=64 F=8, paper ≈100",
			big.OptimalTime/big.HeuristicTime)
	}
	// Data movement decreases with growing F at P=64.
	var lastMoved int64 = 1 << 62
	for _, pt := range f.Points {
		if pt.P != 64 {
			continue
		}
		if pt.HeuristicMoved > lastMoved {
			t.Errorf("P=64: moved volume rose from F=%d to F=%d", pt.F/2, pt.F)
		}
		lastMoved = pt.HeuristicMoved
	}
}

func TestFig11Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	f := RunFig11()
	// Strong correlation per P: within one P, more elements moved means
	// more remap time.
	byP := map[int][]Fig11Point{}
	for _, pt := range f.Points {
		byP[pt.P] = append(byP[pt.P], pt)
	}
	for p, pts := range byP {
		for i := range pts {
			for j := range pts {
				if pts[i].Moved < pts[j].Moved && pts[i].RemapTime > 1.35*pts[j].RemapTime {
					t.Errorf("P=%d: moving fewer elements (%d vs %d) cost far more time (%.4g vs %.4g)",
						p, pts[i].Moved, pts[j].Moved, pts[i].RemapTime, pts[j].RemapTime)
				}
			}
		}
	}
}

func TestFig12Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	f := RunFig12()
	last := func(s adapt.Strategy) Fig12Point {
		c := f.Curves[s]
		return c[len(c)-1]
	}
	l1, l2, rnd := last(adapt.Local1), last(adapt.Local2), last(adapt.Random)
	// Local_1 benefits most, Random only marginally.
	if !(l1.Improvement > l2.Improvement && l2.Improvement > rnd.Improvement) {
		t.Errorf("improvement ordering broken: L1=%.2f L2=%.2f R=%.2f",
			l1.Improvement, l2.Improvement, rnd.Improvement)
	}
	if l1.Improvement < 2 {
		t.Errorf("Local_1 improvement %.2f at P=64, paper ≈6", l1.Improvement)
	}
	if rnd.Improvement > 1.6 {
		t.Errorf("Random improvement %.2f should be marginal", rnd.Improvement)
	}
	// No improvement may beat the analytic bound by more than rounding.
	for s, curve := range f.Curves {
		for _, pt := range curve {
			if pt.Improvement > pt.Bound*1.05 {
				t.Errorf("%v P=%d: improvement %.2f exceeds bound %.2f", s, pt.P, pt.Improvement, pt.Bound)
			}
		}
	}
}

func TestPartitionerTableClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale comparison (runs the Lanczos backends)")
	}
	tb := RunPartitionerTable(16, 0, nil)
	if len(tb.Rows) != len(partition.Methods) {
		t.Fatalf("table has %d rows, want %d", len(tb.Rows), len(partition.Methods))
	}
	for _, r := range tb.Rows {
		// Honest cost accounting: every backend — graph and SFC alike —
		// must report nonzero ops for the remap acceptance rule, and the
		// critical path can never exceed the total.
		if r.Ops.Total <= 0 || r.Ops.Crit <= 0 {
			t.Errorf("%v reports zero partitioning cost: %+v", r.Method, r.Ops)
		}
		if r.Ops.Crit > r.Ops.Total {
			t.Errorf("%v critical path %d exceeds total %d", r.Method, r.Ops.Crit, r.Ops.Total)
		}
	}
	ml := tb.Row(partition.MethodMultilevel)
	for _, m := range []partition.Method{partition.MethodMortonSFC, partition.MethodHilbertSFC} {
		r := tb.Row(m)
		// The acceptance bar: SFC beats the Chaco-style multilevel scheme
		// on wall time at equal k while staying inside the paper's
		// operating imbalance of 1.10.
		if r.PartitionSeconds >= ml.PartitionSeconds {
			t.Errorf("%v partition %.4fs not faster than multilevel %.4fs",
				m, r.PartitionSeconds, ml.PartitionSeconds)
		}
		if r.Imbalance > 1.10 {
			t.Errorf("%v imbalance %.4f > 1.10", m, r.Imbalance)
		}
		// The incremental path must not cost more than the full build
		// (it skips key generation and the sort).
		if r.IncrementalSeconds <= 0 || r.IncrementalSeconds > r.PartitionSeconds {
			t.Errorf("%v incremental repartition %.6fs vs full %.6fs",
				m, r.IncrementalSeconds, r.PartitionSeconds)
		}
		// Curve cuts trade some edge cut for speed, but must stay in the
		// same league as the graph partitioners (compactness of the curve).
		if r.EdgeCut > 3*ml.EdgeCut {
			t.Errorf("%v edge cut %d vs multilevel %d: locality lost", m, r.EdgeCut, ml.EdgeCut)
		}
	}
	if !strings.Contains(tb.String(), "multilevel") {
		t.Error("table rendering broken")
	}
}

func TestRemapExecTableClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale remap anatomy")
	}
	tb := RunRemapExecTable(0)
	if len(tb.Rows) < 3 {
		t.Fatalf("table has %d rows", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r.Moved <= 0 || r.Sets <= 0 || r.WordsMoved < r.Moved*50 {
			t.Errorf("P=%d: degenerate remap %+v", r.P, r)
		}
		if r.Ops.Total <= 0 || r.Ops.Crit <= 0 || r.Ops.Crit > r.Ops.Total {
			t.Errorf("P=%d: bad ops accounting %+v", r.P, r.Ops)
		}
		if r.Total <= 0 || r.Total < r.PackTime {
			t.Errorf("P=%d: inconsistent modeled times %+v", r.P, r)
		}
		if r.HostSeconds <= 0 {
			t.Errorf("P=%d: no host timing", r.P)
		}
	}
	// More processors split the same movement into more, smaller sets.
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if last.Sets <= first.Sets {
		t.Errorf("sets did not grow with P: %d@P=%d vs %d@P=%d",
			first.Sets, first.P, last.Sets, last.P)
	}
	if !strings.Contains(tb.String(), "anatomy") {
		t.Error("table rendering broken")
	}
}

// TestTableStringsStable is the byte-stability regression for the report
// renderers: repeated String() calls on the same data must produce
// identical bytes with the panels in their fixed order. Fig8.String()
// used to range over a map literal of panels, so (a) and (b) swapped at
// random between runs.
func TestTableStringsStable(t *testing.T) {
	f := &Fig8{Curves: map[adapt.Strategy][]Fig8Point{}}
	for i, s := range adapt.Strategies {
		f.Curves[s] = []Fig8Point{
			{P: 1, SpeedupR: 1, SpeedupC: 1},
			{P: 2, SpeedupR: float64(i + 2), SpeedupC: float64(i + 3)},
		}
	}
	ref := f.String()
	ia := strings.Index(ref, "(a) refinement")
	ib := strings.Index(ref, "(b) coarsening")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("panels missing or out of order: (a)@%d (b)@%d", ia, ib)
	}
	for i := 0; i < 50; i++ {
		if got := f.String(); got != ref {
			t.Fatalf("Fig8.String() not byte-stable on call %d:\n%q\nvs\n%q", i, got, ref)
		}
	}

	ov := &OverlapTable{Rows: []OverlapRow{
		{P: 8, Workers: 1, Solver: 0.5, Pipeline: 0.1, Redist: 0.4,
			CritBulk: 1, CritOverlap: 0.9, Hidden: 0.1, Speedup: 1.11,
			PeakWords: 100, TotalWords: 600, Accepted: true},
	}}
	ovRef := ov.String()
	for i := 0; i < 10; i++ {
		if ov.String() != ovRef {
			t.Fatalf("OverlapTable.String() not byte-stable on call %d", i)
		}
	}
}

func TestBaseMeshIsolated(t *testing.T) {
	// Clones must be independent: adapting one clone must not leak into
	// the next.
	m1 := BaseMesh()
	n := m1.NumActiveElems()
	a := adapt.New(m1)
	a.MarkStrategyRefine(adapt.Local1, Seed)
	a.Refine()
	m2 := BaseMesh()
	if m2.NumActiveElems() != n {
		t.Fatal("BaseMesh clone leaked adaption state")
	}
}
