package machine

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
)

// sortMergePairs is the accumulator's oracle: it sorts raw flows by
// (Src, Dst) and merges duplicates, summing their words.
func sortMergePairs(raw []Flow) []Flow {
	raw = slices.Clone(raw)
	slices.SortFunc(raw, func(a, b Flow) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	var out []Flow
	for _, f := range raw {
		if n := len(out); n > 0 && out[n-1].Src == f.Src && out[n-1].Dst == f.Dst {
			out[n-1].Words += f.Words
		} else {
			out = append(out, f)
		}
	}
	return out
}

func TestPairs(t *testing.T) {
	var ps Pairs
	ps.Add(2, 1, 3)
	ps.Add(0, 1, 1)
	ps.Add(2, 1, 2)
	ps.Add(0, 2, 4)
	want := []Flow{
		{Src: 0, Dst: 1, Words: 1},
		{Src: 0, Dst: 2, Words: 4},
		{Src: 2, Dst: 1, Words: 5},
	}
	if got := ps.Flows(); !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if got := ps.Flows(); len(got) != 0 {
		t.Fatalf("Flows did not empty the accumulator: %v", got)
	}
	ps.AddSPL([]int32{1, 4, 6}, 2)
	ps.AddSPL([]int32{4, 6}, 1)
	ps.AddSPL([]int32{3}, 7) // one sharer: no notification
	want = []Flow{
		{Src: 1, Dst: 4, Words: 2}, {Src: 1, Dst: 6, Words: 2},
		{Src: 4, Dst: 1, Words: 2}, {Src: 4, Dst: 6, Words: 3},
		{Src: 6, Dst: 1, Words: 2}, {Src: 6, Dst: 4, Words: 3},
	}
	if got := ps.Flows(); !slices.Equal(got, want) {
		t.Fatalf("after reuse: got %v want %v", got, want)
	}
}

// pairsRank maps a fuzz byte to a rank among the lowest sixteen or the
// sixteen below 32768, the largest P the CLI is probed at.
func pairsRank(b byte) int32 {
	if b&0x80 != 0 {
		return 32767 - int32(b&0x0f)
	}
	return int32(b & 0x0f)
}

// FuzzPairs runs a script of Add and AddSPL calls on one accumulator,
// emptying it at the script's flush marks and at its end. Every Flows
// result must equal the sort-and-merge of the raw contributions since the
// last flush.
func FuzzPairs(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x05, 0x02, 0x01, 0x02, 0x07})
	f.Add([]byte{0x01, 0x04, 0x81, 0x02, 0x8f, 0x03, 0x00, 0x8f, 0x81, 0x09})
	f.Add([]byte{0x00, 0x8e, 0x83, 0x01, 0x02, 0x00, 0x8e, 0x83, 0x04, 0x01, 0x03, 0x8e, 0x83, 0x05, 0x06})
	f.Fuzz(func(t *testing.T, script []byte) {
		var ps Pairs
		var raw []Flow
		check := func(at int) {
			if got, want := ps.Flows(), sortMergePairs(raw); !slices.Equal(got, want) {
				t.Fatalf("flush at byte %d: got %v want %v", at, got, want)
			}
			raw = raw[:0]
		}
		next := func(i *int) byte {
			b := script[*i%len(script)]
			*i++
			return b
		}
		for i := 0; i < len(script); {
			op := next(&i)
			switch op % 3 {
			case 0: // Add
				src, dst, words := pairsRank(next(&i)), pairsRank(next(&i)), int64(next(&i))
				if src == dst {
					continue
				}
				ps.Add(src, dst, words)
				raw = append(raw, Flow{Src: src, Dst: dst, Words: words})
			case 1: // AddSPL of a sorted list of distinct ranks
				n := int(next(&i)) % 6
				var spl []int32
				for range n {
					spl = append(spl, pairsRank(next(&i)))
				}
				slices.Sort(spl)
				spl = slices.Compact(spl)
				words := int64(op>>2) + 1
				ps.AddSPL(spl, words)
				for _, r := range spl {
					for _, o := range spl {
						if r != o {
							raw = append(raw, Flow{Src: r, Dst: o, Words: words})
						}
					}
				}
			case 2:
				check(i)
			}
		}
		check(len(script))
	})
}

// TestPairsWarmAllocatesNothing pins the accumulator's reuse: once its
// buffers have grown to a round's distinct pairs, summing and reading the
// round again allocates nothing.
func TestPairsWarmAllocatesNothing(t *testing.T) {
	var ps Pairs
	round := func() {
		for r := int32(0); r < 64; r++ {
			ps.Add(r, (r+1)%64, 1)
			ps.Add(32767-r, r, 2)
			ps.AddSPL([]int32{r, r + 100, 32000 + r}, 1)
		}
		ps.Flows()
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("a warm accumulator allocated %.0f times a round", n)
	}
}

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

// TestChargeElemFlows holds ChargeElemFlows on a list counting elements to
// ChargeFlows on the same list converted to FlowWords: the same charge and
// a byte-identical clock under both schedules.
func TestChargeElemFlows(t *testing.T) {
	mdl := SP2()
	words := slices.Clone(chargeFixture)
	for i := range words {
		words[i].Words = mdl.FlowWords(words[i].Words)
	}
	for _, x := range []Exchange{ExchangeFlat, ExchangeAggregated} {
		ce, cw := NewClock(8), NewClock(8)
		che := mdl.ChargeElemFlows(ce, x, chargeFixture)
		chw := mdl.ChargeFlows(cw, x, words)
		if che != chw || !slices.Equal(ce.t, cw.t) {
			t.Errorf("%v: element charge %+v %v, word charge %+v %v", x, che, ce.t, chw, cw.t)
		}
	}
}

// TestRetryHookPosition checks that the retry hook fires once per message
// with the flow's ranks and its as-sent word count.
func TestRetryHookPosition(t *testing.T) {
	mdl := SP2()
	type call struct {
		src, dst int32
		words    int64
	}
	var calls []call
	hook := func(src, dst int32, words int64) { calls = append(calls, call{src, dst, words}) }

	mdl.ChargeFlowsRetry(NewClock(8), chargeFixture, hook)
	if len(calls) != 5 || calls[0] != (call{0, 1, 10}) {
		t.Fatalf("flat retry calls: %+v", calls)
	}
}
