package core

import (
	"reflect"
	"strings"
	"testing"

	"plum/internal/adapt"
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
	if _, err := New(meshgen.UnitCube(), nil, cfg); err == nil || !strings.Contains(err.Error(), "node topology") {
		t.Errorf("hierarchical on a flat machine: got %v", err)
	}

	cfg = base()
	cfg.Model.Topo = machine.Topology{RanksPerNode: 4} // missing intra rates
	if _, err := New(meshgen.UnitCube(), nil, cfg); err == nil {
		t.Error("invalid topology accepted")
	}

	cfg = base()
	cfg.Exchange = "hierarchical"
	cfg.Model.Topo = machine.NodeTopology(2)
	f, err := New(meshgen.UnitCube(), nil, cfg)
	if err != nil {
		t.Fatalf("valid hierarchical config rejected: %v", err)
	}
	if f.D.Exchange != machine.ExchangeHierarchical {
		t.Errorf("Dist.Exchange = %v", f.D.Exchange)
	}
	if f.Cfg.Model.Topo != cfg.Model.Topo {
		t.Error("topology not threaded into the machine model")
	}
}

// exchangeCycles runs two balance cycles on the corner-refined box under
// the given exchange config and returns the reports.
func exchangeCycles(t *testing.T, exchange string, topo machine.Topology) []CycleReport {
	t.Helper()
	cfg := DefaultConfig(8)
	cfg.Exchange = exchange
	cfg.Model.Topo = topo
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

// TestCycleFlatExchangeIsLegacy pins the satellite bugfix contract at the
// framework level: the default config, an explicit "flat" exchange, and a
// flat topology all produce byte-identical cycle reports — Exchange and
// the new setup fields included — so the legacy path cannot have drifted.
func TestCycleFlatExchangeIsLegacy(t *testing.T) {
	ref := exchangeCycles(t, "", machine.Topology{})
	for _, rep := range ref {
		if b := rep.Balance; b.Accepted && (b.Remap.Setups != int64(b.MoveN) || b.Remap.SetupTime <= 0) {
			t.Fatalf("flat remap setup accounting wrong: %+v", b)
		}
	}
	got := exchangeCycles(t, "flat", machine.Topology{})
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("explicit flat exchange diverges from the default config")
	}
}

// TestCycleExchangeInvariants runs the same workload under all three
// schedules: the mesh evolution and balance decisions must be identical,
// while the setup accounting must shrink under the combined schedules.
func TestCycleExchangeInvariants(t *testing.T) {
	topo := machine.NodeTopology(4)
	flat := exchangeCycles(t, "flat", topo)
	for _, exchange := range []string{"aggregated", "hierarchical"} {
		got := exchangeCycles(t, exchange, topo)
		for c := range flat {
			fb, gb := flat[c].Balance, got[c].Balance
			if gb.ImbalanceBefore != fb.ImbalanceBefore || gb.ImbalanceAfter != fb.ImbalanceAfter ||
				gb.Accepted != fb.Accepted || gb.MoveC != fb.MoveC || gb.MoveN != fb.MoveN ||
				gb.Remap.Moved != fb.Remap.Moved || gb.Remap.WordsMoved != fb.Remap.WordsMoved {
				t.Fatalf("%s cycle %d: schedule changed the physics:\n got %+v\nwant %+v",
					exchange, c, gb, fb)
			}
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
	}
}
