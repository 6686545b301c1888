package core

import (
	"reflect"
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/par"
	"plum/internal/partition"
)

// overlapFW builds a framework on a mesh big enough to clear the serial
// cutoff, so the executor exercises real multi-window plans.
func overlapFW(t *testing.T, workers int, overlap bool) *Framework {
	t.Helper()
	m := meshgen.Box(12, 12, 12, geom.Vec3{X: 1, Y: 1, Z: 1})
	cfg := DefaultConfig(8)
	cfg.Method = partition.MethodHilbertSFC
	cfg.Workers = workers
	cfg.Overlap = overlap
	f, err := New(m, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-refine a corner so the cycle's adaption pushes the imbalance
	// over the threshold and the remap is worth executing.
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
	f.A.Refine()
	return f
}

func runOverlapCycle(t *testing.T, f *Framework) CycleReport {
	t.Helper()
	rep, err := f.Cycle(func(a *adapt.Adaptor) {
		a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.4}, adapt.MarkRefine)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Balance.Accepted {
		t.Fatalf("fixture did not accept the remap: gain=%g cost=%g",
			rep.Balance.Gain, rep.Balance.Cost)
	}
	return rep
}

// TestCycleOverlapParity is the determinism contract of the overlapped
// cycle: at every worker count the Overlap=true cycle must produce the
// byte-identical CycleReport and ownership to the strict-barrier baseline,
// except for the fields overlap is *supposed* to change — the exposed cost
// and the hidden time.
func TestCycleOverlapParity(t *testing.T) {
	var refOwners []int32
	for _, w := range []int{1, 2, 4, 8} {
		off := overlapFW(t, w, false)
		on := overlapFW(t, w, true)
		repOff := runOverlapCycle(t, off)
		repOn := runOverlapCycle(t, on)
		bOff, bOn := repOff.Balance, repOn.Balance

		// The serial baseline charges the full cost and hides nothing.
		if bOff.Cost != bOff.CostFull || bOff.OverlapTime != 0 {
			t.Errorf("workers=%d: Overlap off must charge the full cost: cost=%g full=%g hidden=%g",
				w, bOff.Cost, bOff.CostFull, bOff.OverlapTime)
		}
		// Overlap hides part of the pipeline behind the solve, never more
		// than the solve itself, and charges only the exposed remainder.
		if bOn.OverlapTime <= 0 || bOn.OverlapTime > repOn.SolverTime {
			t.Errorf("workers=%d: OverlapTime %g outside (0, SolverTime=%g]",
				w, bOn.OverlapTime, repOn.SolverTime)
		}
		if bOn.CostFull != bOff.Cost {
			t.Errorf("workers=%d: overlapped CostFull %g != serial Cost %g", w, bOn.CostFull, bOff.Cost)
		}
		if bOn.Cost != bOn.CostFull-bOn.OverlapTime {
			t.Errorf("workers=%d: exposed cost %g != full %g - hidden %g",
				w, bOn.Cost, bOn.CostFull, bOn.OverlapTime)
		}
		// The streaming executor bounds the payload footprint strictly
		// below the whole-buffer total.
		total := bOn.Remap.Moved * par.RecordWords
		if bOn.Remap.PeakWords <= 0 || bOn.Remap.PeakWords >= total {
			t.Errorf("workers=%d: streaming peak %d not strictly below total %d",
				w, bOn.Remap.PeakWords, total)
		}

		// Everything else — partitions, owners, modeled times, op counts,
		// the whole remap result — must be byte-identical.
		repOn.Balance.OverlapTime = bOff.OverlapTime
		repOn.Balance.Cost = bOff.Cost
		if !reflect.DeepEqual(repOn, repOff) {
			t.Errorf("workers=%d: overlapped cycle diverges beyond the overlap fields:\n on  %+v\n off %+v",
				w, repOn, repOff)
		}
		owners := on.D.Owners()
		if !reflect.DeepEqual(owners, off.D.Owners()) {
			t.Errorf("workers=%d: overlapped ownership diverges from serial", w)
		}
		if refOwners == nil {
			refOwners = owners
		} else if !reflect.DeepEqual(owners, refOwners) {
			t.Errorf("workers=%d: ownership diverges from workers=1", w)
		}
	}
}

// TestStandaloneBalanceHasNoWindow pins that Balance outside a cycle never
// hides cost even with Overlap on: there is no solve to hide behind.
func TestStandaloneBalanceHasNoWindow(t *testing.T) {
	f := overlapFW(t, 2, true)
	f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.4}, adapt.MarkRefine)
	f.A.Refine()
	rep, err := f.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repartitioned {
		t.Fatal("fixture did not trigger repartitioning")
	}
	if rep.OverlapTime != 0 || rep.Cost != rep.CostFull {
		t.Errorf("standalone Balance hid cost: hidden=%g cost=%g full=%g",
			rep.OverlapTime, rep.Cost, rep.CostFull)
	}
}

// TestSolverItersValidation pins the single-knob contract: New rejects a
// negative count, normalizes zero to the default of 3, and Cycle's modeled
// SolverTime scales with the knob.
func TestSolverItersValidation(t *testing.T) {
	m := meshgen.SmallBox()
	bad := DefaultConfig(2)
	bad.SolverIters = -1
	if _, err := New(m, nil, bad); err == nil {
		t.Error("accepted negative SolverIters")
	}
	zero := DefaultConfig(2)
	zero.SolverIters = 0
	f, err := New(meshgen.SmallBox(), nil, zero)
	if err != nil {
		t.Fatal(err)
	}
	if f.Cfg.SolverIters != 3 {
		t.Errorf("zero SolverIters normalized to %d, want 3", f.Cfg.SolverIters)
	}

	mark := func(a *adapt.Adaptor) {}
	rep3, err := f.Cycle(mark)
	if err != nil {
		t.Fatal(err)
	}
	six := DefaultConfig(2)
	six.SolverIters = 6
	f6, err := New(meshgen.SmallBox(), nil, six)
	if err != nil {
		t.Fatal(err)
	}
	rep6, err := f6.Cycle(mark)
	if err != nil {
		t.Fatal(err)
	}
	if rep6.SolverTime != 2*rep3.SolverTime {
		t.Errorf("SolverTime did not scale with SolverIters: 6 iters %g vs 3 iters %g",
			rep6.SolverTime, rep3.SolverTime)
	}
}
