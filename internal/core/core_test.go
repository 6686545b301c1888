package core

import (
	"math"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/propagate"
	"plum/internal/refine"
	"plum/internal/solver"
)

func newFW(t *testing.T, p int) *Framework {
	t.Helper()
	m := meshgen.SmallBox()
	f, err := New(m, nil, DefaultConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewRejectsBadConfig(t *testing.T) {
	m := meshgen.UnitCube()
	if _, err := New(m, nil, Config{P: 0, F: 1}); err == nil {
		t.Error("accepted P=0")
	}
	if _, err := New(m, nil, Config{P: 2, F: 0}); err == nil {
		t.Error("accepted F=0")
	}
	bad := DefaultConfig(2)
	bad.Propagator = "nope"
	if _, err := New(meshgen.UnitCube(), nil, bad); err == nil {
		t.Error("accepted unknown propagator")
	}
}

// TestCycleAdaptAccounting checks that a cycle surfaces the adaption
// pass's first-class cost figures in the balance report for every
// propagation backend: nonzero totals, a critical path no longer than the
// total, and the modeled wall clock derived from them.
func TestCycleAdaptAccounting(t *testing.T) {
	for _, name := range propagate.Names {
		m := meshgen.SmallBox()
		cfg := DefaultConfig(4)
		cfg.Propagator = name
		f, err := New(m, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Cycle(func(a *adapt.Adaptor) {
			a.MarkRandom(0.10, adapt.MarkRefine, 7)
		})
		if err != nil {
			t.Fatal(err)
		}
		b := rep.Balance
		if b.AdaptOps <= 0 || b.AdaptCritOps <= 0 || b.AdaptCritOps > b.AdaptOps {
			t.Errorf("%s: bad adapt ops %d/%d", name, b.AdaptOps, b.AdaptCritOps)
		}
		if b.AdaptExecTime <= 0 {
			t.Errorf("%s: no modeled adapt exec time", name)
		}
		if b.AdaptOps != rep.AdaptTime.Ops.Total ||
			b.AdaptExecTime != rep.AdaptTime.Ops.Time(cfg.Model) {
			t.Errorf("%s: report drifted from the pass's own accounting", name)
		}
	}
}

func TestEvaluateBalancedInitially(t *testing.T) {
	f := newFW(t, 4)
	imb, need := f.Evaluate()
	if need {
		t.Errorf("fresh partition flagged for repartitioning (imb=%.3f)", imb)
	}
	if imb < 1 || imb > f.Cfg.ImbalanceThreshold {
		t.Errorf("initial imbalance %.3f", imb)
	}
}

func TestBalanceNoOpWhenBalanced(t *testing.T) {
	f := newFW(t, 4)
	rep, err := f.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repartitioned || rep.Accepted {
		t.Errorf("balanced mesh triggered pipeline: %+v", rep)
	}
}

func TestBalanceAfterLocalizedRefinement(t *testing.T) {
	f := newFW(t, 8)
	// Heavy corner refinement creates severe imbalance.
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
	f.A.Refine()
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.4}, adapt.MarkRefine)
	f.A.Refine()

	imb, need := f.Evaluate()
	if !need {
		t.Fatalf("imbalance %.3f did not exceed threshold", imb)
	}
	rep, err := f.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repartitioned {
		t.Fatal("did not repartition")
	}
	if !rep.Accepted {
		t.Fatalf("remap not accepted: gain=%g cost=%g", rep.Gain, rep.Cost)
	}
	if rep.ImbalanceAfter >= rep.ImbalanceBefore {
		t.Errorf("imbalance did not improve: %.3f -> %.3f", rep.ImbalanceBefore, rep.ImbalanceAfter)
	}
	if rep.WmaxNew >= rep.WmaxOld {
		t.Errorf("Wmax did not improve: %d -> %d", rep.WmaxOld, rep.WmaxNew)
	}
	if rep.MoveC <= 0 || rep.MoveN <= 0 || rep.Remap.Moved != rep.MoveC {
		t.Errorf("movement accounting: C=%d N=%d remap=%+v", rep.MoveC, rep.MoveN, rep.Remap)
	}
	// After the remap the actual loads must match the projection.
	newImb := par_ImbalanceFactor(f.Loads())
	if math.Abs(newImb-rep.ImbalanceAfter) > 1e-9 {
		t.Errorf("projected imbalance %.4f != realized %.4f", rep.ImbalanceAfter, newImb)
	}
}

// par_ImbalanceFactor avoids an import cycle in test helpers.
func par_ImbalanceFactor(loads []int64) float64 {
	var max, sum int64
	for _, x := range loads {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) / (float64(sum) / float64(len(loads)))
}

func TestCostDecisionRejectsPointlessRemap(t *testing.T) {
	f := newFW(t, 4)
	// Make remapping prohibitively expensive.
	f.Cfg.Cost.Tlat = 1 // one second per word
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
	f.A.Refine()
	ownersBefore := f.D.Owners()
	rep, err := f.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repartitioned {
		t.Skip("imbalance below threshold on this fixture")
	}
	if rep.Accepted {
		t.Fatal("accepted a remap whose cost exceeds any possible gain")
	}
	// Ownership untouched (new partitioning discarded).
	for i, o := range f.D.Owners() {
		if o != ownersBefore[i] {
			t.Fatal("ownership changed despite rejection")
		}
	}
}

func TestCycleWithSolver(t *testing.T) {
	m := meshgen.SmallBox()
	s := solver.New(m, solver.GaussianPulse(geom.Vec3{X: 0.2, Y: 0.2, Z: 0.2}, 0.15))
	f, err := New(m, s, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Cycle(func(a *adapt.Adaptor) {
		errv := s.EdgeError()
		hi := 0.0
		for _, e := range errv {
			if e > hi {
				hi = e
			}
		}
		a.MarkError(errv, hi*0.3, -1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refine.TotalSubdivided() == 0 {
		t.Error("cycle refined nothing")
	}
	if rep.SolverTime <= 0 || rep.AdaptTime.Total <= 0 {
		t.Errorf("times: %+v", rep)
	}
	if len(s.U) != len(m.Verts) {
		t.Error("solution not synced")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSolverlessCycleResetsLog checks that with no solver to consume it
// the mesh's log does not outlive the cycle that wrote it.
func TestSolverlessCycleResetsLog(t *testing.T) {
	f := newFW(t, 4)
	for c := 0; c < 10; c++ {
		rep, err := f.Cycle(func(a *adapt.Adaptor) { a.MarkRandom(0.01, adapt.MarkRefine, int64(c)) })
		if err != nil {
			t.Fatal(err)
		}
		if rep.Refine.EdgesBisected == 0 {
			t.Fatalf("cycle %d bisected nothing", c)
		}
		if n := len(f.M.Bisections); n > rep.Refine.EdgesBisected {
			t.Fatalf("cycle %d: %d log entries after a cycle of %d bisections", c, n, rep.Refine.EdgesBisected)
		}
	}
}

func TestOptimalMapperPath(t *testing.T) {
	f := newFW(t, 4)
	f.Cfg.Mapper = MapperOptimal
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.7}, adapt.MarkRefine)
	f.A.Refine()
	rep, err := f.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repartitioned && rep.ReassignOps < int64(4*4*4) {
		t.Errorf("optimal ops = %d, want ≥ n³", rep.ReassignOps)
	}
}

func TestFGreaterThanOne(t *testing.T) {
	f := newFW(t, 4)
	f.Cfg.F = 4
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.7}, adapt.MarkRefine)
	f.A.Refine()
	rep, err := f.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repartitioned {
		t.Skip("no repartition on fixture")
	}
	if rep.ImbalanceAfter > rep.ImbalanceBefore {
		t.Error("F=4 worsened balance")
	}
}

func TestImprovementBound(t *testing.T) {
	// 8P/(P+7): 1 at P=1, ≈7.2 at P=64, →8 as P→∞.
	if b := ImprovementBound(1); math.Abs(b-1) > 1e-12 {
		t.Errorf("bound(1) = %g", b)
	}
	if b := ImprovementBound(64); math.Abs(b-8*64.0/71.0) > 1e-12 {
		t.Errorf("bound(64) = %g", b)
	}
	if ImprovementBound(1024) >= 8 {
		t.Error("bound must stay below 8")
	}
}

func TestMapperString(t *testing.T) {
	if MapperHeuristic.String() != "heuristic" || MapperOptimal.String() != "optimal" {
		t.Error("mapper names")
	}
}

// TestBalanceChargesEveryPartitioner pins the honest-cost contract closed
// by the parallel-SFC PR: after a repartition, every backend — graph and
// SFC alike — reports nonzero total and critical-path op counts, and the
// modeled repartitioning time lands on the cost side of the acceptance
// rule.
func TestBalanceChargesEveryPartitioner(t *testing.T) {
	for _, meth := range partition.Methods {
		f := newFW(t, 8)
		f.Cfg.Method = meth
		f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
		f.A.Refine()
		f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.4}, adapt.MarkRefine)
		f.A.Refine()
		rep, err := f.Balance()
		if err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
		if !rep.Repartitioned {
			t.Fatalf("%v: fixture did not trigger repartitioning", meth)
		}
		if rep.RepartitionOps <= 0 || rep.RepartitionCritOps <= 0 {
			t.Errorf("%v: zero repartition cost reported (ops=%d crit=%d)",
				meth, rep.RepartitionOps, rep.RepartitionCritOps)
		}
		if rep.RepartitionCritOps > rep.RepartitionOps {
			t.Errorf("%v: critical path %d exceeds total %d",
				meth, rep.RepartitionCritOps, rep.RepartitionOps)
		}
		if rep.RepartitionTime <= 0 {
			t.Errorf("%v: repartition time not charged", meth)
		}
		// The remap execution's scatter work is predicted before the
		// decision and sits on the cost side too.
		if rep.RemapOps <= 0 || rep.RemapCritOps <= 0 || rep.RemapCritOps > rep.RemapOps {
			t.Errorf("%v: bad remap ops %d/%d", meth, rep.RemapOps, rep.RemapCritOps)
		}
		if rep.RemapExecTime <= 0 {
			t.Errorf("%v: remap execution time not charged", meth)
		}
		// The acceptance rule must see the whole balancing overhead: the
		// reported cost is redistribution + repartition + reassignment +
		// remap execution.
		wantCost := f.Cfg.Cost.RedistCost(rep.MoveC, rep.MoveN) +
			rep.RepartitionTime + rep.ReassignTime + rep.RemapExecTime
		if math.Abs(rep.Cost-wantCost) > 1e-12 {
			t.Errorf("%v: cost %.6g does not include the balancing overhead (want %.6g)",
				meth, rep.Cost, wantCost)
		}
		// The pre-decision prediction must be exactly what the executed
		// remap reports (MoveStats' C and N are ExecuteRemap's Moved and
		// Sets).
		if rep.Accepted &&
			(rep.Remap.Ops.Total != rep.RemapOps || rep.Remap.Ops.Crit != rep.RemapCritOps) {
			t.Errorf("%v: executed remap ops %d/%d differ from predicted %d/%d",
				meth, rep.Remap.Ops.Total, rep.Remap.Ops.Crit, rep.RemapOps, rep.RemapCritOps)
		}
	}
}

// TestBalanceSplitsMemCompTime pins the MemOp/CompOp machine-model
// split: the refinement share of the repartition ops is reported
// separately, charged at Model.MemOp, and the compute-bound remainder at
// Model.CompOp, with RepartitionTime their exact sum.
func TestBalanceSplitsMemCompTime(t *testing.T) {
	f := newFW(t, 8)
	f.Cfg.Method = partition.MethodHilbertSFC
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
	f.A.Refine()
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.4}, adapt.MarkRefine)
	f.A.Refine()
	rep, err := f.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repartitioned {
		t.Fatal("fixture did not trigger repartitioning")
	}
	if rep.RefineOps <= 0 || rep.RefineCritOps <= 0 {
		t.Errorf("refinement share not reported: %d/%d", rep.RefineOps, rep.RefineCritOps)
	}
	if rep.RefineOps > rep.RepartitionOps || rep.RefineCritOps > rep.RepartitionCritOps {
		t.Errorf("refinement share %d/%d exceeds repartition totals %d/%d",
			rep.RefineOps, rep.RefineCritOps, rep.RepartitionOps, rep.RepartitionCritOps)
	}
	wantComp := float64(rep.RepartitionCritOps-rep.RefineCritOps) * f.Cfg.Model.CompOp
	wantMem := float64(rep.RefineCritOps) * f.Cfg.Model.MemOp
	if math.Abs(rep.RepartitionCompTime-wantComp) > 1e-15 ||
		math.Abs(rep.RepartitionMemTime-wantMem) > 1e-15 {
		t.Errorf("time split %.3g/%.3g, want %.3g/%.3g",
			rep.RepartitionCompTime, rep.RepartitionMemTime, wantComp, wantMem)
	}
	if math.Abs(rep.RepartitionTime-(wantComp+wantMem)) > 1e-15 {
		t.Errorf("RepartitionTime %.3g != comp+mem %.3g", rep.RepartitionTime, wantComp+wantMem)
	}
	if rep.ReassignTime != float64(rep.ReassignOps)*f.Cfg.Model.MemOp {
		t.Errorf("reassignment not charged at MemOp")
	}
}

// TestRefinerKnob runs the balance pipeline under every refinement
// backend and rejects unknown names at construction.
func TestRefinerKnob(t *testing.T) {
	for _, name := range refine.Names {
		cfg := DefaultConfig(8)
		cfg.Refiner = name // resolved by New, so it goes in up front
		cfg.Method = partition.MethodHilbertSFC
		f, err := New(meshgen.SmallBox(), nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
		f.A.Refine()
		f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.4}, adapt.MarkRefine)
		f.A.Refine()
		rep, err := f.Balance()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Repartitioned && rep.Accepted && rep.ImbalanceAfter >= rep.ImbalanceBefore {
			t.Errorf("%s: accepted remap did not improve balance: %.3f -> %.3f",
				name, rep.ImbalanceBefore, rep.ImbalanceAfter)
		}
	}
	if _, err := New(meshgen.SmallBox(), nil, Config{P: 2, F: 1, Refiner: "nope"}); err == nil {
		t.Error("accepted unknown refiner")
	}
}

// TestBalanceWorkerCountInvariance runs the full SFC pipeline at several
// worker counts and demands identical ownership — the framework-level
// restatement of the psort determinism guarantee. It holds for a named
// refiner on a small mesh and for the default ("") on a dual graph above
// refine.SerialCutoff, where the band-FM's parallel path really runs at
// workers > 1 and its serial replay at workers = 1.
func TestBalanceWorkerCountInvariance(t *testing.T) {
	for _, tc := range []struct {
		refiner string
		mesh    func() *mesh.Mesh
		workers []int
	}{
		{"bandfm", meshgen.SmallBox, []int{1, 2, 5}},
		{"", func() *mesh.Mesh { return meshgen.Box(9, 9, 9, geom.Vec3{X: 1, Y: 1, Z: 1}) }, []int{1, 2, 4}},
	} {
		var ref []int32
		for _, workers := range tc.workers {
			cfg := DefaultConfig(8)
			cfg.Method = partition.MethodHilbertSFC
			cfg.Workers = workers
			cfg.Refiner = tc.refiner
			f, err := New(tc.mesh(), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.refiner == "" && f.G.N < refine.SerialCutoff {
				t.Fatalf("dual graph has %d vertices, need ≥ %d", f.G.N, refine.SerialCutoff)
			}
			f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
			f.A.Refine()
			f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.4}, adapt.MarkRefine)
			f.A.Refine()
			rep, err := f.Balance()
			if err != nil {
				t.Fatalf("refiner=%q workers=%d: %v", tc.refiner, workers, err)
			}
			if !rep.Accepted {
				t.Fatalf("refiner=%q workers=%d: fixture executed no remap", tc.refiner, workers)
			}
			owners := f.D.Owners()
			if ref == nil {
				ref = owners
			} else if !slices.Equal(owners, ref) {
				t.Errorf("refiner=%q workers=%d: ownership diverges from workers=%d",
					tc.refiner, workers, tc.workers[0])
			}
		}
	}
}
