package par

import (
	"fmt"
	"reflect"
	"testing"

	"plum/internal/fault"
	"plum/internal/machine"
)

// exchanges is the iteration table for the parity tests.
var exchanges = []machine.Exchange{
	machine.ExchangeFlat,
	machine.ExchangeAggregated,
}

// TestExchangeParity is the schedules' determinism contract: both
// exchange schedules move byte-identical payloads to byte-identical
// owners — flat and aggregated differ only in the modeled communication
// charges — and within each schedule the fault-free executed remap is,
// modeled floats included and up to PeakWords, ChargeRemap of its flows,
// the windowless price the acceptance rule quotes. It holds at P = 8,
// where nearly every rank pair carries a flow, and at P = 512, where
// nearly none does and the executor walks flow lists instead of rank
// ranges. Under a fault plan the two schedules send the same frames to
// the same fates, so they also recover identically.
func TestExchangeParity(t *testing.T) {
	for _, p := range []int{8, 512} {
		testExchangeParity(t, p)
	}
}

func testExchangeParity(t *testing.T, p int) {
	mdl := machine.SP2()

	type outcome struct {
		res    RemapResult
		owners []int32
		flows  []machine.Flow
	}
	var plan *fault.Plan
	run := func(x machine.Exchange) outcome {
		d, newOwner := bigFixture(t, p)
		d.Exchange = x
		d.Retry = fault.Retry{MsgAttempts: 12, WindowRetries: 6}
		flows := countFlows(d.M, d.owner, newOwner)
		res, err := d.executeRemap(newOwner, flows, mdl, plan)
		if err != nil {
			t.Fatalf("%v: %v", x, err)
		}
		return outcome{res, d.Owners(), flows}
	}

	refs := map[machine.Exchange]outcome{}
	for _, x := range exchanges {
		ref := run(x)
		if ref.res.Moved == 0 || ref.res.Sets < 2 || ref.res.Setups == 0 || ref.res.SetupTime <= 0 {
			t.Fatalf("%v: fixture not interesting: %+v", x, ref.res)
		}
		refs[x] = ref

		// The windows leave no trace on the charge: the executed remap is
		// the windowless price of its flows.
		want := ChargeRemap(mdl, x, p, ref.flows)
		want.PeakWords = ref.res.PeakWords
		if !reflect.DeepEqual(ref.res, want) {
			t.Errorf("%v: executed remap diverges from ChargeRemap beyond PeakWords:\n got %+v\nwant %+v", x, ref.res, want)
		}
		if total := ref.res.Moved * RecordWords; ref.res.PeakWords <= 0 || ref.res.PeakWords >= total {
			t.Errorf("%v: streaming peak %d not strictly below the whole payload %d", x, ref.res.PeakWords, total)
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
			got.res.PackTime != flat.res.PackTime {
			t.Errorf("%v: schedule-invariant fields diverge from flat:\n got %+v\nwant %+v",
				x, got.res, flat.res)
		}
		if got.res.Setups >= flat.res.Setups {
			t.Errorf("%v: %d setups not below flat's %d", x, got.res.Setups, flat.res.Setups)
		}
	}

	// Fault leg: same frames, same fates — the schedules recover to the
	// fault-free owners through identical retries.
	plan = &fault.Plan{Seed: 1717, Rate: 0.25}
	ff, fa := run(machine.ExchangeFlat), run(machine.ExchangeAggregated)
	if !reflect.DeepEqual(ff.owners, flat.owners) || !reflect.DeepEqual(fa.owners, flat.owners) {
		t.Fatal("recovered owners diverge from fault-free")
	}
	if ff.res.Retries == 0 && ff.res.WindowRetries == 0 {
		t.Error("rate 0.25 left no recovery trace")
	}
	if fa.res.Retries != ff.res.Retries || fa.res.RetryWords != ff.res.RetryWords ||
		fa.res.WindowRetries != ff.res.WindowRetries {
		t.Errorf("recovery differs across schedules: flat %d/%d/%d, aggregated %d/%d/%d",
			ff.res.Retries, ff.res.RetryWords, ff.res.WindowRetries,
			fa.res.Retries, fa.res.RetryWords, fa.res.WindowRetries)
	}
}

// TestFlatExchangeLegacyAccounting pins the flat schedule to the paper's
// accounting: one setup per element set at exactly Tsetup each.
func TestFlatExchangeLegacyAccounting(t *testing.T) {
	mdl := machine.SP2()
	d, newOwner := bigFixture(t, 8)
	res, err := d.ExecuteRemap(newOwner, countFlows(d.M, d.owner, newOwner), mdl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Setups != int64(res.Sets) {
		t.Errorf("flat Setups = %d, want Sets = %d", res.Setups, res.Sets)
	}
	if got, want := res.SetupTime, float64(res.Sets)*mdl.Tsetup; got != want {
		t.Errorf("flat SetupTime = %g, want Sets·Tsetup = %g", got, want)
	}
}

// TestRetryNamingNoFlowPanics: every message of the exchange is a flow's,
// and the executor keeps one retry counter per flow, at its index, so a
// counter slice of any other length names a flow the list does not hold
// (or misses one): a bug in the executor, never a price. nil is the
// fault-free path.
func TestRetryNamingNoFlowPanics(t *testing.T) {
	d, newOwner := bigFixture(t, 8)
	flows := countFlows(d.M, d.owner, newOwner)
	mdl := machine.SP2()
	if got, want := new(remapScratch).charge(mdl, d.Exchange, d.P, flows, make([]pairRetry, len(flows)), nil), ChargeRemap(mdl, d.Exchange, d.P, flows); got != want {
		t.Errorf("all-zero counters charged %+v, want the fault-free %+v", got, want)
	}
	for _, n := range []int{len(flows) + 1, len(flows) - 1, 0} {
		func() {
			defer func() {
				want := fmt.Sprintf("par: %d retry counters for %d flows", n, len(flows))
				if msg := fmt.Sprint(recover()); msg != want {
					t.Errorf("%d counters: got panic %q, want %q", n, msg, want)
				}
			}()
			new(remapScratch).charge(mdl, d.Exchange, d.P, flows, make([]pairRetry, n), nil)
		}()
	}
}
