package core

import (
	"reflect"
	"strings"
	"testing"

	"plum/internal/adapt"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
)

func TestNewValidatesExchange(t *testing.T) {
	base := func() Config { return DefaultConfig(4) }

	cfg := base()
	cfg.Exchange = "nope"
	if _, err := New(meshgen.UnitCube(), nil, cfg); err == nil || !strings.Contains(err.Error(), "exchange") {
		t.Errorf("unknown exchange: got %v", err)
	}

	cfg = base()
	cfg.Exchange = "hierarchical"
	if _, err := New(meshgen.UnitCube(), nil, cfg); err == nil ||
		!strings.Contains(err.Error(), `unknown exchange "hierarchical" (have [flat aggregated])`) {
		t.Errorf("hierarchical: got %v", err)
	}

	cfg = base()
	cfg.Exchange = "aggregated"
	f, err := New(meshgen.UnitCube(), nil, cfg)
	if err != nil {
		t.Fatalf("valid aggregated config rejected: %v", err)
	}
	if f.D.Exchange != machine.ExchangeAggregated {
		t.Errorf("Dist.Exchange = %v", f.D.Exchange)
	}
}

// exchangeCycles runs two balance cycles on the corner-refined box under
// the given exchange schedule and fault plan (nil = fault-free) and
// returns the reports.
func exchangeCycles(t *testing.T, exchange string, plan *fault.Plan) []CycleReport {
	t.Helper()
	cfg := DefaultConfig(8)
	cfg.Exchange = exchange
	cfg.Faults = plan
	cfg.Retry = fault.Budget(8)
	f, err := New(meshgen.Box(8, 8, 8, geom.Vec3{X: 1, Y: 1, Z: 1}), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reps []CycleReport
	radius := 0.7
	for c := 0; c < 2; c++ {
		r := radius
		rep, err := f.Cycle(func(a *adapt.Adaptor) {
			a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: r}, adapt.MarkRefine)
		})
		if err != nil {
			t.Fatal(err)
		}
		radius *= 0.8
		reps = append(reps, rep)
	}
	return reps
}

// TestCycleFlatExchangeIsLegacy pins the default at the framework level:
// the default config and an explicit "flat" exchange produce
// byte-identical cycle reports — Exchange and the setup fields included.
func TestCycleFlatExchangeIsLegacy(t *testing.T) {
	ref := exchangeCycles(t, "", nil)
	for _, rep := range ref {
		if b := rep.Balance; b.Accepted && (b.Remap.Setups != int64(b.MoveN) || b.Remap.SetupTime <= 0) {
			t.Fatalf("flat remap setup accounting wrong: %+v", b)
		}
	}
	got := exchangeCycles(t, "flat", nil)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("explicit flat exchange diverges from the default config")
	}
}

// TestCycleExchangeInvariants runs the same workload under both
// schedules: the mesh evolution and balance decisions must be identical,
// while the setup accounting must shrink under the aggregated schedule.
// Under a fault plan the schedules send the same frames to the same
// fates, so the recovery counters match too.
func TestCycleExchangeInvariants(t *testing.T) {
	for _, plan := range []*fault.Plan{nil, {Seed: 15, Rate: 0.15, Kinds: []fault.Kind{fault.Drop, fault.Corrupt}}} {
		flat := exchangeCycles(t, "flat", plan)
		const exchange = "aggregated"
		got := exchangeCycles(t, exchange, plan)
		retried := false
		for c := range flat {
			fb, gb := flat[c].Balance, got[c].Balance
			if gb.ImbalanceBefore != fb.ImbalanceBefore || gb.ImbalanceAfter != fb.ImbalanceAfter ||
				gb.Accepted != fb.Accepted || gb.MoveC != fb.MoveC || gb.MoveN != fb.MoveN ||
				gb.Remap.Moved != fb.Remap.Moved || gb.Remap.WordsMoved != fb.Remap.WordsMoved {
				t.Fatalf("%s cycle %d: schedule changed the physics:\n got %+v\nwant %+v",
					exchange, c, gb, fb)
			}
			if gb.Outcome != fb.Outcome || gb.Remap.Retries != fb.Remap.Retries ||
				gb.Remap.RetryWords != fb.Remap.RetryWords || gb.Remap.WindowRetries != fb.Remap.WindowRetries {
				t.Errorf("%s cycle %d: schedule changed the recovery:\n got %+v\nwant %+v",
					exchange, c, gb, fb)
			}
			retried = retried || fb.Remap.Retries > 0
			if !fb.Accepted {
				continue
			}
			if gb.Remap.Setups >= fb.Remap.Setups {
				t.Errorf("%s cycle %d: %d setups not below flat's %d",
					exchange, c, gb.Remap.Setups, fb.Remap.Setups)
			}
			if gb.Remap.SetupTime >= fb.Remap.SetupTime {
				t.Errorf("%s cycle %d: setup time %g not below flat's %g",
					exchange, c, gb.Remap.SetupTime, fb.Remap.SetupTime)
			}
			if gb.Exchange.String() != exchange {
				t.Errorf("cycle %d: report says exchange %v, want %s", c, gb.Exchange, exchange)
			}
		}
		if plan != nil && !retried {
			t.Error("fault plan left no retries to compare")
		}
	}
}
