package par

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"plum/internal/comm"
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
// charges — and within each schedule the whole RemapResult, modeled
// floats included, is byte-identical at workers 1/2/4/8 and between the
// bulk and streaming executors. It holds at P = 8, where nearly every
// rank pair carries a flow, and at P = 512, where nearly none does and
// the executor walks flow lists instead of rank ranges. Under a fault
// plan the two schedules send the same frames to the same fates, so they
// also recover identically.
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
	}
	var plan *fault.Plan
	run := func(x machine.Exchange, workers int, streaming bool) outcome {
		d, newOwner := bigFixture(t, p)
		d.Workers = workers
		d.Exchange = x
		d.Faults = plan
		d.Retry = fault.Retry{MsgAttempts: 12, WindowRetries: 6}
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
		if got.res.Setups >= flat.res.Setups {
			t.Errorf("%v: %d setups not below flat's %d", x, got.res.Setups, flat.res.Setups)
		}
	}

	// Fault leg: same frames, same fates — the schedules recover to the
	// fault-free owners through identical retries.
	plan = &fault.Plan{Seed: 1717, Rate: 0.25}
	ff, fa := run(machine.ExchangeFlat, 4, true), run(machine.ExchangeAggregated, 4, true)
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
}

// TestRetryNamingNoFlowPanics: every message of the exchange is a flow's,
// so a retry record for a pair the flow list does not hold is a bug in
// the transport or the plan, never a price.
func TestRetryNamingNoFlowPanics(t *testing.T) {
	d, newOwner := bigFixture(t, 8) // ring flows only: 0->4 moves nothing
	fi := collectFlowIndex(d.M, d.rootDual, d.owner, newOwner, d.P, 1)
	if fi.find(0, 4) >= 0 {
		t.Fatal("fixture has a 0->4 flow")
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "retry counters for 0->4 name no flow") {
			t.Fatalf("bogus retry record: got %q", msg)
		}
	}()
	d.accountRemap(&fi, machine.SP2(), &RemapResult{}, []comm.PairRetry{{Src: 0, Dst: 4, Resends: 1}})
}
