package core

import (
	"reflect"
	"testing"

	"plum/internal/adapt"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/meshgen"
)

// runFaultScenario drives a fresh framework through `cycles` cycles of
// shrinking-sphere corner refinement — a workload whose growing corner
// imbalance makes the balance pipeline repartition and remap — and
// returns the reports plus the final ownership.
func runFaultScenario(t *testing.T, cfg Config, cycles int) ([]CycleReport, []int32) {
	t.Helper()
	f, err := New(meshgen.SmallBox(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	radius := 0.7
	var reps []CycleReport
	for i := 0; i < cycles; i++ {
		r := radius
		rep, err := f.Cycle(func(a *adapt.Adaptor) {
			a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: r}, adapt.MarkRefine)
		})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		radius *= 0.8
	}
	return reps, f.D.Owners()
}

// TestCycleEmptyFaultPlanParity is the byte-parity acceptance criterion
// at the framework level: with a present-but-empty fault plan every
// CycleReport and the final ownership must be identical — bit for bit,
// modeled floats included — to the nil-plan run, on both the
// bulk-synchronous and the overlapped streaming pipeline.
func TestCycleEmptyFaultPlanParity(t *testing.T) {
	const cycles = 3
	for _, overlap := range []bool{false, true} {
		cfg := DefaultConfig(4)
		cfg.Overlap = overlap
		refReps, refOwners := runFaultScenario(t, cfg, cycles)

		cfg.Faults = &fault.Plan{Seed: 31, Rate: 0}
		cfg.Retry = fault.Budget(2)
		reps, owners := runFaultScenario(t, cfg, cycles)
		if !reflect.DeepEqual(reps, refReps) {
			t.Errorf("overlap=%v: empty plan changed the reports:\n got %+v\nwant %+v",
				overlap, reps, refReps)
		}
		if !reflect.DeepEqual(owners, refOwners) {
			t.Errorf("overlap=%v: empty plan changed the ownership", overlap)
		}
		for _, rep := range refReps {
			if rep.Outcome != OutcomeCommitted {
				t.Errorf("overlap=%v: fault-free cycle reported %v", overlap, rep.Outcome)
			}
		}
	}
}

// TestCycleFaultSeedsDeterministic pins the seeded half of the acceptance
// criterion at two fault seeds: with a generous recovery budget every
// cycle converges to the fault-free mesh state (same final ownership,
// same kernel stats), the recovery is visible in the retry trace, and a
// repeated run is byte-identical end to end.
func TestCycleFaultSeedsDeterministic(t *testing.T) {
	const cycles = 3
	base := DefaultConfig(4)
	base.Overlap = true // streaming remap: windows + commits under faults
	refReps, refOwners := runFaultScenario(t, base, cycles)

	for _, seed := range []int64{7, 99} {
		cfg := base
		cfg.Faults = &fault.Plan{Seed: seed, Rate: 0.2}
		cfg.Retry = fault.Budget(8)

		reps, owners := runFaultScenario(t, cfg, cycles)
		if !reflect.DeepEqual(owners, refOwners) {
			t.Fatalf("seed=%d: recovered ownership diverges from fault-free", seed)
		}
		var retried bool
		for i, rep := range reps {
			if rep.Outcome != OutcomeCommitted && rep.Outcome != OutcomeRetriedCommitted {
				t.Fatalf("seed=%d cycle %d: did not converge: %v (%s)",
					seed, i, rep.Outcome, rep.Balance.FaultDetail)
			}
			if rep.Outcome == OutcomeRetriedCommitted {
				retried = true
			}
			if rep.Refine != refReps[i].Refine {
				t.Errorf("seed=%d cycle %d: faults changed the adaption kernel", seed, i)
			}
		}
		if !retried {
			t.Errorf("seed=%d: rate 0.2 never left a remap retry trace", seed)
		}

		// Full byte determinism of a repeated identical run.
		reps2, owners2 := runFaultScenario(t, cfg, cycles)
		if !reflect.DeepEqual(reps, reps2) || !reflect.DeepEqual(owners, owners2) {
			t.Errorf("seed=%d: two identical faulted runs differ", seed)
		}
	}
}

// TestBalanceRollbackDegrades drives the pipeline into graceful
// degradation: with every message dropped and no recovery budget, a
// balance pass that would have remapped instead rolls back — old
// partition intact, no error — and a second consecutive rollback
// escalates to Degraded. Clearing the plan afterwards lets the next pass
// commit and reset the streak.
func TestBalanceRollbackDegrades(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		cfg := DefaultConfig(8)
		cfg.Overlap = overlap
		cfg.Faults = &fault.Plan{Seed: 13, Rate: 1, Kinds: []fault.Kind{fault.Drop}}
		cfg.Retry = fault.Budget(0)
		f, err := New(meshgen.SmallBox(), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
		f.A.Refine()
		f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.4}, adapt.MarkRefine)
		f.A.Refine()
		before := f.D.Owners()

		rep, err := f.Balance()
		if err != nil {
			t.Fatalf("overlap=%v: rollback surfaced as error: %v", overlap, err)
		}
		if !rep.Repartitioned || rep.Accepted {
			t.Fatalf("overlap=%v: expected an attempted-but-rolled-back remap: %+v", overlap, rep)
		}
		if rep.Outcome != OutcomeRolledBack || rep.FaultDetail == "" {
			t.Fatalf("overlap=%v: outcome %v (%q), want rolled-back", overlap, rep.Outcome, rep.FaultDetail)
		}
		if rep.ImbalanceAfter != rep.ImbalanceBefore {
			t.Errorf("overlap=%v: rolled-back pass claims improved imbalance", overlap)
		}
		if !reflect.DeepEqual(f.D.Owners(), before) {
			t.Fatalf("overlap=%v: rollback left a modified ownership map", overlap)
		}

		rep2, err := f.Balance()
		if err != nil {
			t.Fatal(err)
		}
		if rep2.Outcome != OutcomeDegraded {
			t.Fatalf("overlap=%v: second consecutive rollback reported %v, want degraded", overlap, rep2.Outcome)
		}
		if !reflect.DeepEqual(f.D.Owners(), before) {
			t.Fatal("degraded pass modified the ownership map")
		}

		// The machine heals: the next pass commits and resets the streak.
		f.D.Faults = nil
		rep3, err := f.Balance()
		if err != nil {
			t.Fatal(err)
		}
		if !rep3.Accepted || rep3.Outcome != OutcomeCommitted {
			t.Fatalf("overlap=%v: healed pass did not commit: %+v", overlap, rep3.Outcome)
		}
		if f.rollbackStreak != 0 {
			t.Error("committed remap did not reset the rollback streak")
		}
	}
}

// TestNewRejectsBadFaultPlan pins config validation.
func TestNewRejectsBadFaultPlan(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &fault.Plan{Seed: 1, Rate: 1.5}
	if _, err := New(meshgen.UnitCube(), nil, cfg); err == nil {
		t.Error("accepted out-of-range fault rate")
	}
}
