package machine

import (
	"reflect"
	"testing"
)

func TestExchangeNames(t *testing.T) {
	for i, name := range ExchangeNames {
		x, err := ExchangeByName(name)
		if err != nil || int(x) != i || x.String() != name {
			t.Fatalf("ExchangeByName(%q) = %v, %v", name, x, err)
		}
	}
	if x, err := ExchangeByName(""); err != nil || x != ExchangeFlat {
		t.Error("empty name must select flat")
	}
	if _, err := ExchangeByName("nope"); err == nil {
		t.Error("accepted unknown exchange")
	}
}

var chargeFixture = []Flow{
	{Src: 0, Dst: 1, Words: 10},
	{Src: 0, Dst: 2, Words: 5},
	{Src: 1, Dst: 7, Words: 3},
	{Src: 2, Dst: 0, Words: 1},
	{Src: 4, Dst: 5, Words: 8},
}

// TestChargeFlatLegacyParity pins the flat schedule to the paper's
// per-flow MsgTime charges.
func TestChargeFlatLegacyParity(t *testing.T) {
	mdl := SP2()
	clk := NewClock(8)
	ch := mdl.ChargeFlows(clk, ExchangeFlat, chargeFixture)
	if ch.Msgs != 5 || ch.Words != 27 {
		t.Fatalf("flat charge %+v", ch)
	}
	if got, want := ch.SetupTime, 5*mdl.Tsetup; got != want {
		t.Errorf("SetupTime %g want %g", got, want)
	}
	if got, want := clk.Rank(0), mdl.MsgTime(10)+mdl.MsgTime(5); got != want {
		t.Errorf("rank 0 charged %g, want legacy %g", got, want)
	}
	if clk.Rank(7) != 0 {
		t.Error("flat schedule must not charge receivers")
	}
}

// TestChargeAggregatedLegacyParity pins the aggregated schedule to the
// legacy propagate.Aggregated expressions: MsgTime over each source's
// combined total, per-word Tlat drain on destinations.
func TestChargeAggregatedLegacyParity(t *testing.T) {
	mdl := SP2()
	clk := NewClock(8)
	ch := mdl.ChargeFlows(clk, ExchangeAggregated, chargeFixture)
	if ch.Msgs != 4 || ch.Words != 27 {
		t.Fatalf("aggregated charge %+v", ch)
	}
	if got, want := ch.SetupTime, 4*mdl.Tsetup; got != want {
		t.Errorf("SetupTime %g want %g", got, want)
	}
	if got, want := clk.Rank(0), mdl.MsgTime(15)+1*mdl.Tlat; got != want {
		t.Errorf("rank 0 charged %g, want legacy %g", got, want)
	}
	if got, want := clk.Rank(7), 3*mdl.Tlat; got != want {
		t.Errorf("rank 7 drain %g, want %g", got, want)
	}
}

// TestExchangeSetupScaling is the schedules' scaling claim in miniature:
// on an all-pairs flow set the modeled setup time must rank
// aggregated < flat, over the same logical words.
func TestExchangeSetupScaling(t *testing.T) {
	const p = 64
	mdl := SP2()
	var flows []Flow
	for s := 0; s < p; s++ {
		for d := 0; d < p; d++ {
			if s != d {
				flows = append(flows, Flow{Src: int32(s), Dst: int32(d), Words: 2})
			}
		}
	}
	flat := mdl.ChargeFlows(NewClock(p), ExchangeFlat, flows)
	agg := mdl.ChargeFlows(NewClock(p), ExchangeAggregated, flows)
	if flat.Words != agg.Words {
		t.Fatalf("logical words differ across schedules: %d vs %d", flat.Words, agg.Words)
	}
	if !(agg.SetupTime < flat.SetupTime) {
		t.Errorf("setup ranking violated: agg %g, flat %g", agg.SetupTime, flat.SetupTime)
	}
}

// TestChargeDeterminism: identical inputs must produce byte-identical
// clocks and charges — the figures feed determinism-diffed reports.
func TestChargeDeterminism(t *testing.T) {
	mdl := SP2()
	for _, x := range []Exchange{ExchangeFlat, ExchangeAggregated} {
		c1, c2 := NewClock(8), NewClock(8)
		ch1 := mdl.ChargeFlows(c1, x, chargeFixture)
		ch2 := mdl.ChargeFlows(c2, x, chargeFixture)
		if !reflect.DeepEqual(ch1, ch2) || c1.Elapsed() != c2.Elapsed() {
			t.Errorf("%v: charge not deterministic", x)
		}
	}
}

// TestRetryHookPosition checks that the retry hook fires once per message
// with the as-sent word count and the CombinedDst sentinel on combined
// frames.
func TestRetryHookPosition(t *testing.T) {
	mdl := SP2()
	type call struct {
		src, dst int32
		words    int64
	}
	var calls []call
	hook := func(src, dst int32, words int64) { calls = append(calls, call{src, dst, words}) }

	mdl.ChargeFlowsRetry(NewClock(8), ExchangeFlat, chargeFixture, hook)
	if len(calls) != 5 || calls[0] != (call{0, 1, 10}) {
		t.Fatalf("flat retry calls: %+v", calls)
	}

	calls = nil
	mdl.ChargeFlowsRetry(NewClock(8), ExchangeAggregated, chargeFixture, hook)
	want := []call{{0, CombinedDst, 15}, {1, CombinedDst, 3}, {2, CombinedDst, 1}, {4, CombinedDst, 8}}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("aggregated retry calls: %+v, want %+v", calls, want)
	}
}
