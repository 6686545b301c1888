package core

import (
	"errors"
	"math"
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/obs"
	"plum/internal/partition"
	"plum/internal/remap"
	"plum/internal/solver"
)

func newFW(t *testing.T, p int) *Framework {
	t.Helper()
	return newFWConfig(t, DefaultConfig(p))
}

// newFWConfig builds a framework over the small box from cfg. New
// resolves the configuration, so a test that needs another method or F
// sets it here, not on Framework.Cfg afterwards.
func newFWConfig(t *testing.T, cfg Config) *Framework {
	t.Helper()
	f, err := New(meshgen.SmallBox(), nil, cfg)
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
	for name, spoil := range map[string]func(*Config){
		"unknown method": func(c *Config) { c.Method = partition.Method(len(partition.Methods)) },
		"NaN threshold":  func(c *Config) { c.ImbalanceThreshold = math.NaN() },
	} {
		bad := DefaultConfig(2)
		spoil(&bad)
		if _, err := New(meshgen.UnitCube(), nil, bad); err == nil {
			t.Errorf("accepted %s", name)
		}
	}
}

// TestCycleAdaptAccounting checks that a cycle reports the adaption
// pass's first-class cost figures in CycleReport.AdaptTime: nonzero
// totals, a memory-bound share no larger than the total, and a positive
// price on the machine's two rates.
func TestCycleAdaptAccounting(t *testing.T) {
	m := meshgen.SmallBox()
	cfg := DefaultConfig(4)
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
	ops := rep.AdaptTime.Ops
	if ops.Total <= 0 || ops.Mem <= 0 || ops.Mem > ops.Total {
		t.Errorf("bad adapt ops %+v", ops)
	}
	if ops.Time(cfg.Model) <= 0 {
		t.Error("no modeled adapt exec time")
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
	if pr := rep.Predicted; pr.Moved <= 0 || pr.Sets <= 0 || rep.Remap.Moved != pr.Moved {
		t.Errorf("movement accounting: C=%d N=%d remap=%+v", pr.Moved, pr.Sets, rep.Remap)
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
	f.Cfg.Model.Tlat = 1 // one second per word
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
	if len(s.U) != m.VertSlots() {
		t.Error("solution not synced")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCycleRejectsCoarsenMarks: Cycle adapts by refinement alone, so a
// mark function that leaves coarsen marks fails the cycle with a typed
// error naming them, before the mesh changes, instead of dropping them.
// Coarsening first, as the drivers do, clears them.
func TestCycleRejectsCoarsenMarks(t *testing.T) {
	f := newFW(t, 4)
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
	f.A.Refine()
	elems := f.M.NumActiveElems()
	var nCoarsen int
	_, err := f.Cycle(func(a *adapt.Adaptor) {
		errv := make([]float64, a.M.EdgeSlots())
		for e := range errv {
			errv[e] = float64(e % 10)
		}
		_, nCoarsen = a.MarkError(errv, 8.5, 0.5)
	})
	var ce *CoarsenMarksError
	if !errors.As(err, &ce) || ce.Marks != nCoarsen || nCoarsen == 0 {
		t.Fatalf("Cycle with %d coarsen marks returned %v", nCoarsen, err)
	}
	if got := f.M.NumActiveElems(); got != elems {
		t.Fatalf("the refused cycle adapted the mesh: %d elements, was %d", got, elems)
	}

	f.D.ParallelCoarsen(f.A, f.Cfg.Model)
	rep, err := f.Cycle(func(a *adapt.Adaptor) { a.MarkRandom(0.05, adapt.MarkRefine, 3) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refine.NewElems == 0 {
		t.Error("the cycle after coarsening refined nothing")
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
		if n := f.M.NumBisections(); n > rep.Refine.EdgesBisected {
			t.Fatalf("cycle %d: %d log entries after a cycle of %d bisections", c, n, rep.Refine.EdgesBisected)
		}
	}
}

// TestOptimalMapperPath checks the exact mapper as the reference it is:
// on the cycle's own proposal, Optimal returns a valid mapping whose
// objective is at least that of the heuristic the cycle maps with, for
// exactly the (P·F)³ ops Fig. 10 prices.
func TestOptimalMapperPath(t *testing.T) {
	for _, fac := range []int{1, 2} {
		cfg := DefaultConfig(4)
		cfg.F = fac
		f := newFWConfig(t, cfg)
		f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.7}, adapt.MarkRefine)
		f.A.Refine()
		f.G.UpdateWeights(f.M)
		pr, err := f.propose(f.D.Alive())
		if err != nil {
			t.Fatal(err)
		}
		mp, obj, ops := pr.sim.Optimal()
		if err := pr.sim.Validate(mp); err != nil {
			t.Fatalf("F=%d: optimal mapping invalid: %v", fac, err)
		}
		if obj < pr.objective {
			t.Errorf("F=%d: optimal objective %d < the cycle's heuristic %d", fac, obj, pr.objective)
		}
		n := int64(cfg.P * fac)
		if ops != n*n*n {
			t.Errorf("F=%d: optimal ops = %d, want (P·F)³ = %d", fac, ops, n*n*n)
		}
	}
}

func TestFGreaterThanOne(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.F = 4
	f := newFWConfig(t, cfg)
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

// TestBalanceChargesEveryPartitioner pins the honest-cost contract closed
// for every partitioner: after a repartition, every backend — graph and
// SFC alike — reports nonzero work, its modeled repartitioning time is
// that work priced by machine.Ops.Time, and it lands on the cost side of
// the acceptance rule. The refinement share tells the methods apart, so a
// framework that ran another method than its Config names fails here.
func TestBalanceChargesEveryPartitioner(t *testing.T) {
	for _, meth := range partition.Methods {
		cfg := DefaultConfig(8)
		cfg.Method = meth
		f := newFWConfig(t, cfg)
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
		if rep.RepartitionOps <= 0 {
			t.Errorf("%v: zero repartition cost reported", meth)
		}
		// Multilevel is the one method that refines its cut: the curve
		// methods' exact cut runs no refiner.
		if refines := meth == partition.MethodMultilevel; refines != (rep.RefineOps > 0) {
			t.Errorf("%v: refine ops %d: the pass did not run this method", meth, rep.RefineOps)
		}
		work := machine.Ops{Total: rep.RepartitionOps, Mem: rep.RefineOps}
		if rep.RepartitionTime <= 0 || rep.RepartitionTime != work.Time(f.Cfg.Model) {
			t.Errorf("%v: repartition time %.17g, want its work priced, %.17g",
				meth, rep.RepartitionTime, work.Time(f.Cfg.Model))
		}
		// The acceptance rule must see the whole balancing overhead: the
		// reported cost is, bit for bit, the predicted remap (the
		// executor's own per-rank charge of the mapping's flows) +
		// repartition + reassignment. The paper's total-volume formula is
		// reported beside it, not charged.
		if pr := rep.Predicted; pr.Total <= 0 || pr.Moved <= 0 || pr.Sets <= 0 {
			t.Errorf("%v: predicted remap %+v prices no movement", meth, pr)
		}
		wantCost := rep.Predicted.Total + (rep.RepartitionTime + rep.ReassignTime)
		if rep.Cost != wantCost {
			t.Errorf("%v: cost %.17g is not the predicted remap plus the balancing overhead (want %.17g)",
				meth, rep.Cost, wantCost)
		}
		if want := f.Cfg.Model.RedistCost(rep.Predicted.Moved, rep.Predicted.Sets); rep.CostPaper != want {
			t.Errorf("%v: CostPaper %.17g, want the paper's C·M·Tlat + N·Tsetup = %.17g", meth, rep.CostPaper, want)
		}
	}
}

// TestBalanceSplitsMemCompTime pins the MemOp/CompOp machine-model
// split: the refinement share of the repartition ops is reported
// separately, charged at Model.MemOp, and the compute-bound remainder at
// Model.CompOp, with RepartitionTime their exact sum. It runs multilevel,
// the one method whose repartition has a Mem share.
func TestBalanceSplitsMemCompTime(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Method = partition.MethodMultilevel
	f := newFWConfig(t, cfg)
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
	if rep.RefineOps <= 0 {
		t.Errorf("refinement share not reported: %d", rep.RefineOps)
	}
	if rep.RefineOps > rep.RepartitionOps {
		t.Errorf("refinement share %d exceeds repartition ops %d", rep.RefineOps, rep.RepartitionOps)
	}
	wantComp := float64(rep.RepartitionOps-rep.RefineOps) * f.Cfg.Model.CompOp
	wantMem := float64(rep.RefineOps) * f.Cfg.Model.MemOp
	if rep.RepartitionTime != wantComp+wantMem {
		t.Errorf("RepartitionTime %.17g != comp %.17g + mem %.17g", rep.RepartitionTime, wantComp, wantMem)
	}
	if rep.ReassignTime != float64(rep.ReassignOps)*f.Cfg.Model.MemOp {
		t.Errorf("reassignment not charged at MemOp")
	}
}

// TestRepartitionSpanIsCharged pins the trace and the report to one
// price: on the hilbert curve the traced repartition span lasts exactly
// the pass's RepartitionTime.
func TestRepartitionSpanIsCharged(t *testing.T) {
	tr := obs.NewTrace()
	cfg := DefaultConfig(8)
	cfg.Method = partition.MethodHilbertSFC
	cfg.Trace = tr
	f, err := New(meshgen.Box(9, 9, 9, geom.Vec3{X: 1, Y: 1, Z: 1}), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
	f.A.Refine()
	rep, err := f.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repartitioned {
		t.Fatal("fixture did not repartition")
	}
	var spans []float64
	for _, sp := range tr.Spans() {
		if sp.Stage == "repartition" {
			spans = append(spans, sp.Dur)
		}
	}
	if len(spans) != 1 || spans[0] != rep.RepartitionTime {
		t.Errorf("repartition spans %v, report charges %.17g", spans, rep.RepartitionTime)
	}
}

// TestMultilevelRotorStaysBalanced pins the plum CLI's default run at
// P = 64 (`plum -p 64 -partitioner multilevel -cycles 4`: the full-scale
// rotor, the Local_1 strategy, a solver attached). Uncapped heavy-vertex
// matching built coarse vertices heavier than a whole part there and the
// accepted partitions drifted to 11.18 by cycle 4; every accepted
// partition must stay at or below 2. The scaled-down rotors are not a
// stand-in: at scale 0.2 and 0.4 the same run reads 2.35 and 2.37.
//
// It then replays the last balance pass both ways, on its weights: from
// the owners the pass started from, as Cycle runs it, and from scratch.
// After the heuristic mapping, the owner-seeded partition must move less
// Wremap than the from-scratch one and stay within the same bound.
func TestMultilevelRotorStaysBalanced(t *testing.T) {
	rp := meshgen.DefaultRotor()
	m := meshgen.RotorDisk(rp)
	r, th := (rp.R0+rp.R1)/2, rp.Sweep/2
	sol := solver.New(m, solver.GaussianPulse(geom.Vec3{X: r * math.Cos(th), Y: r * math.Sin(th)}, 0.3))
	cfg := DefaultConfig(64)
	cfg.Method = partition.MethodMultilevel
	f, err := New(m, sol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev []int32
	for c := 1; c <= 4; c++ {
		prev = f.D.Owners()
		rep, err := f.Cycle(func(a *adapt.Adaptor) { a.MarkStrategyRefine(adapt.Local1, cfg.Seed) })
		if err != nil {
			t.Fatal(err)
		}
		b := rep.Balance
		t.Logf("cycle %d: imb %.2f -> %.2f accepted=%v", c, b.ImbalanceBefore, b.ImbalanceAfter, b.Accepted)
		if !b.Accepted || b.ImbalanceAfter > 2 {
			t.Errorf("cycle %d: imbalance %.2f -> %.2f (accepted=%v), want an accepted partition ≤ 2",
				c, b.ImbalanceBefore, b.ImbalanceAfter, b.Accepted)
		}
	}

	moved := func(from []int32) (float64, int64) {
		part, _ := partition.NewRepartitioner(f.G, cfg.Method, partition.Options{Seed: cfg.Seed}).Repartition(cfg.P, from)
		sim := remap.Build(prev, part, f.G.Wremap, cfg.P, 1)
		mp, _, _ := sim.Heuristic()
		_, c := sim.MoveStats(mp)
		return partition.Imbalance(f.G, part, cfg.P), c
	}
	seededImb, seeded := moved(prev)
	scratchImb, scratch := moved(nil)
	t.Logf("cycle 4 replayed: from the owners imb %.2f moving %d, from scratch imb %.2f moving %d",
		seededImb, seeded, scratchImb, scratch)
	if seeded >= scratch || seededImb > 2 || scratchImb > 2 {
		t.Errorf("from the owners: imb %.2f moving %d Wremap; from scratch: imb %.2f moving %d; want less moved, both ≤ 2",
			seededImb, seeded, scratchImb, scratch)
	}
}
