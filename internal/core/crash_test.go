package core

import (
	"reflect"
	"testing"

	"plum/internal/adapt"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// runCrashScenario is runFaultScenario plus the framework itself, so
// callers can inspect dead ranks and survivor loads after the run.
func runCrashScenario(t *testing.T, cfg Config, cycles int) ([]CycleReport, []int32, *Framework) {
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
	return reps, f.D.Owners(), f
}

// verifySurvivorOwnership checks the recovery postcondition: every
// element is owned by a surviving rank and the total computational
// weight over the survivors equals the mesh's total weight.
func verifySurvivorOwnership(t *testing.T, f *Framework, label string) {
	t.Helper()
	alive := make(map[int32]bool)
	for _, r := range f.D.Alive() {
		alive[r] = true
	}
	for v, o := range f.D.Owners() {
		if o < 0 || int(o) >= f.Cfg.P {
			t.Fatalf("%s: vertex %d owned by out-of-range rank %d", label, v, o)
		}
		if !alive[o] {
			t.Fatalf("%s: vertex %d still owned by dead rank %d", label, v, o)
		}
	}
	var want, got int64
	for _, w := range f.G.Wcomp {
		want += w
	}
	for _, l := range f.aliveLoads(f.D.Alive()) {
		got += l
	}
	if got != want {
		t.Fatalf("%s: weight not conserved: survivors hold %d of %d", label, got, want)
	}
}

// TestCrashZeroRateParity is the byte-parity half of the acceptance
// criterion: a present-but-zero-rate crash plan must leave every
// CycleReport — all fields, floats included — and the final ownership
// identical to the nil-plan run, on both the bulk and streaming
// pipelines.
func TestCrashZeroRateParity(t *testing.T) {
	const cycles = 3
	for _, overlap := range []bool{false, true} {
		cfg := DefaultConfig(4)
		cfg.Workers = 2
		cfg.Overlap = overlap
		refReps, refOwners := runFaultScenario(t, cfg, cycles)

		cfg.Faults = &fault.Plan{Seed: 5, Rate: 0, Kinds: []fault.Kind{fault.Crash}}
		cfg.Retry = fault.Budget(2)
		reps, owners := runFaultScenario(t, cfg, cycles)
		if !reflect.DeepEqual(reps, refReps) {
			t.Errorf("overlap=%v: zero-rate crash plan changed the reports:\n got %+v\nwant %+v",
				overlap, reps, refReps)
		}
		if !reflect.DeepEqual(owners, refOwners) {
			t.Errorf("overlap=%v: zero-rate crash plan changed the ownership", overlap)
		}
	}
}

// TestCycleCrashRecovery drives crash-seed sweeps through the full
// pipeline: a cycle that loses a rank must complete with
// OutcomeRecovered, every element survivor-owned and the weight
// conserved, with ownership and every report byte-identical at workers
// 1, 2, 4, and 8 and across repeat runs, on both executors.
func TestCycleCrashRecovery(t *testing.T) {
	const cycles = 4
	for _, overlap := range []bool{false, true} {
		for _, seed := range []int64{1, 2} {
			cfg := DefaultConfig(8)
			cfg.Overlap = overlap
			cfg.Faults = &fault.Plan{Seed: seed, Rate: 0.1, Kinds: []fault.Kind{fault.Crash}}

			var refOwners []int32
			var refReps []CycleReport
			var refAlive []int32
			for _, w := range []int{1, 2, 4, 8} {
				c := cfg
				c.Workers = w
				reps, owners, f := runCrashScenario(t, c, cycles)
				recovered := 0
				for i, rep := range reps {
					if rep.Outcome == OutcomeRecovered {
						recovered++
						if len(rep.Balance.CrashedRanks) == 0 {
							t.Fatalf("overlap=%v seed=%d cycle %d: recovered with no crashed ranks", overlap, seed, i)
						}
						if rep.Balance.Recovery.Moved == 0 {
							t.Errorf("overlap=%v seed=%d cycle %d: recovery moved nothing", overlap, seed, i)
						}
					}
				}
				if recovered == 0 {
					t.Fatalf("overlap=%v seed=%d workers=%d: no cycle recovered from a crash", overlap, seed, w)
				}
				verifySurvivorOwnership(t, f, "post-run")
				if refOwners == nil {
					refOwners, refReps, refAlive = owners, reps, f.D.Alive()
					continue
				}
				if !reflect.DeepEqual(owners, refOwners) {
					t.Errorf("overlap=%v seed=%d workers=%d: post-recovery ownership not worker-invariant", overlap, seed, w)
				}
				if !reflect.DeepEqual(reps, refReps) {
					t.Errorf("overlap=%v seed=%d workers=%d: reports not worker-invariant:\n got %+v\nwant %+v",
						overlap, seed, w, reps, refReps)
				}
				if !reflect.DeepEqual(f.D.Alive(), refAlive) {
					t.Errorf("overlap=%v seed=%d workers=%d: dead set not worker-invariant", overlap, seed, w)
				}
			}

			// Full byte determinism of a repeated identical run.
			r1, o1, _ := runCrashScenario(t, cfg, cycles)
			r2, o2, _ := runCrashScenario(t, cfg, cycles)
			if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(o1, o2) {
				t.Errorf("overlap=%v seed=%d: two identical crash runs differ", overlap, seed)
			}
		}
	}
}

// TestRecoveryIsCharged pins crash recovery's charge: a Recovered pass
// ran two proposals, the failed one over every rank alive before the
// crash and the survivor one, and its RepartitionOps and RepartitionTime
// are both proposals' work, each priced by machine.Ops.Time. Multilevel
// caches nothing, so a one-shot partition of the same weights is each
// proposal's work.
func TestRecoveryIsCharged(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Faults = &fault.Plan{Seed: 1, Rate: 0.1, Kinds: []fault.Kind{fault.Crash}}
	for cycles := 1; cycles <= 4; cycles++ {
		reps, _, f := runCrashScenario(t, cfg, cycles)
		b := reps[cycles-1].Balance
		if b.Outcome != OutcomeRecovered {
			continue
		}
		var ops int64
		var want float64
		for _, alive := range []int{b.Alive + len(b.CrashedRanks), b.Alive} {
			_, work := partition.PartitionCounted(f.G, alive*cfg.F, cfg.Method, partition.Options{Seed: cfg.Seed})
			ops += work.Total
			want += work.Time(cfg.Model)
		}
		if b.RepartitionOps != ops || b.RepartitionTime != want {
			t.Errorf("cycle %d: recovered pass charged %d ops in %.17gs, want both proposals' %d ops in %.17gs",
				cycles, b.RepartitionOps, b.RepartitionTime, ops, want)
		}
		return
	}
	t.Fatal("no cycle recovered from a crash")
}

// TestCycleCrashWithMessageFaults mixes rank deaths with message faults:
// the run must still converge — every cycle committed, retried,
// or recovered — with the survivor postcondition intact, and the crash
// draws must not perturb which message faults fire (the crash kind is
// salted out of the message-fate draw).
func TestCycleCrashWithMessageFaults(t *testing.T) {
	const cycles = 3
	cfg := DefaultConfig(8)
	cfg.Workers = 2
	cfg.Overlap = true
	cfg.Faults = &fault.Plan{Seed: 15, Rate: 0.15, Kinds: []fault.Kind{fault.Crash, fault.Drop}}
	cfg.Retry = fault.Budget(8)
	reps, _, f := runCrashScenario(t, cfg, cycles)
	for i, rep := range reps {
		switch rep.Outcome {
		case OutcomeCommitted, OutcomeRetriedCommitted, OutcomeRecovered:
		default:
			t.Fatalf("cycle %d: outcome %v (%s)", i, rep.Outcome, rep.Balance.FaultDetail)
		}
	}
	verifySurvivorOwnership(t, f, "mixed-kind run")
}

// TestCheckpointAutoEnabledAndCounted pins the checkpoint wiring: a
// crash-capable plan force-enables Config.Checkpoint, each balance pass
// captures once, and the stats are visible through CheckpointStats.
func TestCheckpointAutoEnabledAndCounted(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Faults = &fault.Plan{Seed: 3, Rate: 0.05, Kinds: []fault.Kind{fault.Crash}}
	reps, _, f := runCrashScenario(t, cfg, 2)
	if f.ck == nil {
		t.Fatal("crash plan did not auto-enable the cycle checkpoint")
	}
	st := f.CheckpointStats()
	if st.Captures != len(reps) {
		t.Errorf("captures=%d, want one per cycle (%d)", st.Captures, len(reps))
	}
	if st.FullWords == 0 {
		t.Error("no words ever captured")
	}

	// Checkpoint alone (no fault plan) is a valid configuration too.
	cfg2 := DefaultConfig(4)
	cfg2.Checkpoint = true
	_, _, f2 := runCrashScenario(t, cfg2, 2)
	if f2.CheckpointStats().Captures != 2 {
		t.Errorf("standalone checkpoint: captures=%d, want 2", f2.CheckpointStats().Captures)
	}
}
