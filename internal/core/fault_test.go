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

// faultTrace projects the fault-relevant observables out of one cycle
// report — the fields that must be worker-invariant under a seeded plan.
type cycleFaultTrace struct {
	Outcome                                BalanceOutcome
	Accepted                               bool
	AdaptRetries, AdaptBackoff, AdaptExh   int64
	RemapRetries, RemapRetryWords          int64
	WindowRetries                          int
	ImbalanceBefore, ImbalanceAfter, RTime float64
}

func traceOf(rep CycleReport) cycleFaultTrace {
	return cycleFaultTrace{
		Outcome:         rep.Outcome,
		Accepted:        rep.Balance.Accepted,
		AdaptRetries:    rep.AdaptTime.Retries,
		AdaptBackoff:    rep.AdaptTime.Backoff,
		AdaptExh:        rep.AdaptTime.Exhausted,
		RemapRetries:    rep.Balance.Remap.Retries,
		RemapRetryWords: rep.Balance.Remap.RetryWords,
		WindowRetries:   rep.Balance.Remap.WindowRetries,
		ImbalanceBefore: rep.Balance.ImbalanceBefore,
		ImbalanceAfter:  rep.Balance.ImbalanceAfter,
		RTime:           rep.Balance.Remap.RetryTime,
	}
}

// TestCycleEmptyFaultPlanParity is the byte-parity acceptance criterion
// at the framework level: with a present-but-empty fault plan every
// CycleReport and the final ownership must be identical — bit for bit,
// modeled floats included — to the nil-plan run, at workers 1, 2, 4, and
// 8, on both the bulk-synchronous and the overlapped streaming pipeline.
func TestCycleEmptyFaultPlanParity(t *testing.T) {
	const cycles = 3
	for _, overlap := range []bool{false, true} {
		for _, w := range []int{1, 2, 4, 8} {
			cfg := DefaultConfig(4)
			cfg.Workers = w
			cfg.Overlap = overlap
			refReps, refOwners := runFaultScenario(t, cfg, cycles)

			cfg.Faults = &fault.Plan{Seed: 31, Rate: 0}
			cfg.Retry = fault.Budget(2)
			reps, owners := runFaultScenario(t, cfg, cycles)
			if !reflect.DeepEqual(reps, refReps) {
				t.Errorf("overlap=%v workers=%d: empty plan changed the reports:\n got %+v\nwant %+v",
					overlap, w, reps, refReps)
			}
			if !reflect.DeepEqual(owners, refOwners) {
				t.Errorf("overlap=%v workers=%d: empty plan changed the ownership", overlap, w)
			}
			for _, rep := range refReps {
				if rep.Outcome != OutcomeCommitted {
					t.Errorf("overlap=%v workers=%d: fault-free cycle reported %v", overlap, w, rep.Outcome)
				}
			}
		}
	}
}

// TestCycleFaultSeedsDeterministic pins the seeded half of the acceptance
// criterion at two fault seeds: with a generous recovery budget every
// cycle converges to the fault-free mesh state (same final ownership,
// same kernel stats), the recovery is visible in the retry trace, the
// trace is identical at workers 1, 2, and 4, and a repeated run is
// byte-identical end to end.
func TestCycleFaultSeedsDeterministic(t *testing.T) {
	const cycles = 3
	base := DefaultConfig(4)
	base.Workers = 2
	base.Overlap = true // streaming remap: windows + commits under faults
	refReps, refOwners := runFaultScenario(t, base, cycles)

	for _, seed := range []int64{7, 99} {
		cfg := base
		cfg.Faults = &fault.Plan{Seed: seed, Rate: 0.2}
		cfg.Retry = fault.Budget(8)

		var first []cycleFaultTrace
		for _, w := range []int{1, 2, 4} {
			c := cfg
			c.Workers = w
			reps, owners := runFaultScenario(t, c, cycles)
			if !reflect.DeepEqual(owners, refOwners) {
				t.Fatalf("seed=%d workers=%d: recovered ownership diverges from fault-free", seed, w)
			}
			var traces []cycleFaultTrace
			var retried bool
			for i, rep := range reps {
				if rep.Outcome != OutcomeCommitted && rep.Outcome != OutcomeRetriedCommitted {
					t.Fatalf("seed=%d workers=%d cycle %d: did not converge: %v (%s)",
						seed, w, i, rep.Outcome, rep.Balance.FaultDetail)
				}
				if rep.Outcome == OutcomeRetriedCommitted {
					retried = true
				}
				if rep.Refine != refReps[i].Refine {
					t.Errorf("seed=%d workers=%d cycle %d: faults changed the adaption kernel", seed, w, i)
				}
				traces = append(traces, traceOf(rep))
			}
			if !retried {
				t.Errorf("seed=%d workers=%d: rate 0.2 never left a remap retry trace", seed, w)
			}
			if first == nil {
				first = traces
				continue
			}
			if !reflect.DeepEqual(traces, first) {
				t.Errorf("seed=%d workers=%d: fault trace not worker-invariant:\n got %+v\nwant %+v",
					seed, w, traces, first)
			}
		}

		// Full byte determinism of a repeated identical run.
		r1, o1 := runFaultScenario(t, cfg, cycles)
		r2, o2 := runFaultScenario(t, cfg, cycles)
		if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(o1, o2) {
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
