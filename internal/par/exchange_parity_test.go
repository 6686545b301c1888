package par

import (
	"errors"
	"reflect"
	"testing"

	"plum/internal/fault"
	"plum/internal/machine"
)

// exchanges is the iteration table for the parity tests.
var exchanges = []machine.Exchange{
	machine.ExchangeFlat,
	machine.ExchangeAggregated,
	machine.ExchangeHierarchical,
}

// nodeModel returns the SP2 machine on a 4-ranks-per-node topology — the
// fixture every schedule (hierarchical included) can run on.
func nodeModel() machine.Model {
	mdl := machine.SP2()
	mdl.Topo = machine.NodeTopology(4)
	return mdl
}

// TestExchangeParity is the tentpole's determinism contract: the three
// exchange schedules move byte-identical payloads to byte-identical
// owners — flat, aggregated, and hierarchical differ only in the modeled
// communication charges — and within each schedule the whole RemapResult,
// modeled floats included, is byte-identical at workers 1/2/4/8 and
// between the bulk and streaming executors. It holds at P = 8, where
// nearly every rank pair carries a flow, and at P = 512, where nearly none
// does and the schedules walk flow lists instead of rank ranges.
func TestExchangeParity(t *testing.T) {
	for _, p := range []int{8, 512} {
		testExchangeParity(t, p)
	}
}

func testExchangeParity(t *testing.T, p int) {
	mdl := nodeModel()

	type outcome struct {
		res    RemapResult
		owners []int32
	}
	run := func(x machine.Exchange, workers int, streaming bool) outcome {
		d, newOwner := bigFixture(t, p)
		d.Workers = workers
		d.Exchange = x
		var res RemapResult
		var err error
		if streaming {
			res, err = d.ExecuteRemapStreaming(newOwner, mdl)
		} else {
			res, err = d.ExecuteRemap(newOwner, mdl)
		}
		if err != nil {
			t.Fatalf("%v workers=%d streaming=%v: %v", x, workers, streaming, err)
		}
		return outcome{res, d.Owners()}
	}

	refs := map[machine.Exchange]outcome{}
	for _, x := range exchanges {
		ref := run(x, 1, false)
		if ref.res.Moved == 0 || ref.res.Sets < 2 || ref.res.Setups == 0 || ref.res.SetupTime <= 0 {
			t.Fatalf("%v: fixture not interesting: %+v", x, ref.res)
		}
		refs[x] = ref

		// Worker parity within the schedule: everything but the
		// critical-path op shares is bit-identical.
		for _, w := range []int{2, 4, 8} {
			got := run(x, w, false)
			if !reflect.DeepEqual(got.owners, ref.owners) {
				t.Fatalf("%v workers=%d: owner array diverges", x, w)
			}
			got.res.Ops.Crit, got.res.Ops.MemCrit = ref.res.Ops.Crit, ref.res.Ops.MemCrit
			if !reflect.DeepEqual(got.res, ref.res) {
				t.Errorf("%v workers=%d: RemapResult diverges:\n got %+v\nwant %+v", x, w, got.res, ref.res)
			}
		}

		// Streaming parity: identical up to PeakWords.
		st := run(x, 4, true)
		if !reflect.DeepEqual(st.owners, ref.owners) {
			t.Fatalf("%v: streaming owner array diverges", x)
		}
		norm := st.res
		norm.PeakWords = ref.res.PeakWords
		norm.Ops.Crit, norm.Ops.MemCrit = ref.res.Ops.Crit, ref.res.Ops.MemCrit
		if !reflect.DeepEqual(norm, ref.res) {
			t.Errorf("%v: streaming result diverges beyond PeakWords:\n got %+v\nwant %+v", x, st.res, ref.res)
		}
		if st.res.PeakWords >= ref.res.PeakWords {
			t.Errorf("%v: streaming peak %d not below bulk %d", x, st.res.PeakWords, ref.res.PeakWords)
		}
	}

	// Cross-schedule parity: owners and the schedule-invariant quantities
	// match; only the communication model's outputs differ.
	flat := refs[machine.ExchangeFlat]
	for _, x := range exchanges[1:] {
		got := refs[x]
		if !reflect.DeepEqual(got.owners, flat.owners) {
			t.Fatalf("%v: owner array diverges from flat", x)
		}
		if got.res.Moved != flat.res.Moved || got.res.Sets != flat.res.Sets ||
			got.res.WordsMoved != flat.res.WordsMoved || got.res.PeakWords != flat.res.PeakWords ||
			got.res.Ops != flat.res.Ops || got.res.PackTime != flat.res.PackTime {
			t.Errorf("%v: schedule-invariant fields diverge from flat:\n got %+v\nwant %+v",
				x, got.res, flat.res)
		}
		// At P = 512 every rank sends to its two ring neighbours only, and
		// relaying two flows through a leader saves nothing: there the
		// hierarchical schedule may tie with flat, never exceed it.
		tie := x == machine.ExchangeHierarchical && p > 8
		if got.res.Setups > flat.res.Setups || got.res.Setups == flat.res.Setups && !tie {
			t.Errorf("%v: %d setups not below flat's %d", x, got.res.Setups, flat.res.Setups)
		}
	}
}

// TestFlatExchangeLegacyAccounting pins the flat schedule on a flat
// topology to the paper's accounting: one setup per element set at
// exactly Tsetup each.
func TestFlatExchangeLegacyAccounting(t *testing.T) {
	mdl := machine.SP2()
	d, newOwner := bigFixture(t, 8)
	d.Workers = 4
	res, err := d.ExecuteRemap(newOwner, mdl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Setups != int64(res.Sets) {
		t.Errorf("flat Setups = %d, want Sets = %d", res.Setups, res.Sets)
	}
	if got, want := res.SetupTime, float64(res.Sets)*mdl.Tsetup; got != want {
		t.Errorf("flat SetupTime = %g, want Sets·Tsetup = %g", got, want)
	}
	if res.IntraWords != 0 || res.InterWords != res.WordsMoved {
		t.Errorf("flat topology split wrong: intra %d inter %d moved %d",
			res.IntraWords, res.InterWords, res.WordsMoved)
	}
}

// TestHierarchicalFaultRecovery runs the hierarchical wire path under an
// aggressive fault plan: with a generous budget the remap must converge
// to the fault-free owners byte-identically at every worker count; with a
// starved budget it must roll back to the pre-remap ownership rather than
// commit a torn state.
func TestHierarchicalFaultRecovery(t *testing.T) {
	const p = 8
	mdl := nodeModel()
	refD, newOwner := bigFixture(t, p)
	refD.Exchange = machine.ExchangeHierarchical
	if _, err := refD.ExecuteRemapStreaming(newOwner, mdl); err != nil {
		t.Fatal(err)
	}

	plan := &fault.Plan{Seed: 1717, Rate: 0.25}
	for _, w := range []int{1, 4} {
		d, _ := bigFixture(t, p)
		d.Workers = w
		d.Exchange = machine.ExchangeHierarchical
		d.Faults = plan
		d.Retry = fault.Retry{MsgAttempts: 12, WindowRetries: 6}
		res, err := d.ExecuteRemapStreaming(newOwner, mdl)
		if err != nil {
			t.Fatalf("workers=%d: hierarchical recovery failed: %v", w, err)
		}
		if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
			t.Fatalf("workers=%d: recovered owners diverge from fault-free", w)
		}
		if res.Retries == 0 && res.WindowRetries == 0 {
			t.Errorf("workers=%d: rate 0.25 left no recovery trace", w)
		}
	}

	// Starved budget: rate-1 drops can never converge; the stream must
	// report rollback with the pre-remap ownership intact.
	d, _ := bigFixture(t, p)
	before := d.Owners()
	d.Exchange = machine.ExchangeHierarchical
	d.Faults = &fault.Plan{Seed: 3, Rate: 1, Kinds: []fault.Kind{fault.Drop}}
	d.Retry = fault.Retry{MsgAttempts: 1, WindowRetries: 1}
	_, err := d.ExecuteRemapStreaming(newOwner, mdl)
	var re *RemapError
	if !errors.As(err, &re) || !re.RolledBack {
		t.Fatalf("starved hierarchical remap returned %v, want rolled-back RemapError", err)
	}
	if !reflect.DeepEqual(d.Owners(), before) {
		t.Fatal("rollback left a torn owner array")
	}
}
