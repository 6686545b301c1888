package par

import (
	"math"
	"reflect"
	"testing"

	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// budgets is the window-budget axis of the executor parity tests: the
// whole payload in one window, the adaptive eighth (ExecuteRemap), and a
// budget far below any realistic flow — one flow per window.
var budgets = []struct {
	name  string
	words int64
}{{"one", math.MaxInt64}, {"adaptive", 0}, {"64", 64}}

// TestRemapStreamingParity is the determinism contract of the window
// budget: under every budget the RemapResult —
// payload conservation, owner array, modeled float times, op accounting —
// must be byte-identical to a one-window run. Only PeakWords may (and,
// below the whole payload, must) differ: the streaming peak is the
// largest window, strictly below the whole-buffer total on this
// multi-flow fixture.
func TestRemapStreamingParity(t *testing.T) {
	const p = 8
	refD, newOwner := bigFixture(t, p)
	refRes, err := refD.executeRemap(newOwner, machine.SP2(), math.MaxInt64, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := refRes.Moved * recWords
	if refRes.PeakWords != total {
		t.Fatalf("one-window peak %d != total payload %d", refRes.PeakWords, total)
	}

	for _, b := range budgets {
		d, _ := bigFixture(t, p)
		res, err := d.executeRemap(newOwner, machine.SP2(), b.words, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
			t.Fatalf("budget=%s: owner array diverges from one window", b.name)
		}
		switch one := b.words == math.MaxInt64; {
		case one && res.PeakWords != total:
			t.Errorf("one-window peak %d != total %d", res.PeakWords, total)
		case !one && (res.PeakWords <= 0 || res.PeakWords >= total):
			t.Errorf("budget=%s: streaming peak %d not strictly below total %d",
				b.name, res.PeakWords, total)
		}
		// Everything except the peak must be bit-identical to the
		// one-window reference.
		res.PeakWords = refRes.PeakWords
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("budget=%s: RemapResult diverges:\n got %+v\nwant %+v", b.name, res, refRes)
		}
	}

	// ExecuteRemap is the adaptive budget.
	d, _ := bigFixture(t, p)
	res, err := d.ExecuteRemap(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := bigFixture(t, p)
	if want, _ := d2.executeRemap(newOwner, machine.SP2(), 0, nil); !reflect.DeepEqual(res, want) {
		t.Errorf("ExecuteRemap diverges from the adaptive budget:\n got %+v\nwant %+v", res, want)
	}
}

// TestStreamingWindowBudget pins the window planner: an explicit tiny
// budget forces many windows without changing any result byte, and the
// peak never exceeds max(budget, largest flow).
func TestStreamingWindowBudget(t *testing.T) {
	const p = 8
	refD, newOwner := bigFixture(t, p)
	refRes, err := refD.ExecuteRemap(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}

	d, _ := bigFixture(t, p)
	// The largest flow is the atomic commit unit, so the peak is exactly
	// the largest single flow under a sub-flow budget (indexed before the
	// execution flips the ownership).
	flows := countFlows(d.M, d.Owners(), newOwner, p)
	// 64 words is far below any realistic flow: one flow per window.
	res, err := d.executeRemap(newOwner, machine.SP2(), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
		t.Fatal("tiny window budget changed the owner array")
	}
	var largest int64
	for _, fl := range flows {
		largest = max(largest, fl.Elems)
	}
	if res.PeakWords != largest*recWords {
		t.Errorf("sub-flow budget peak %d, want largest flow %d", res.PeakWords, largest*recWords)
	}
	if res.PeakWords >= refRes.PeakWords {
		t.Errorf("tiny budget peak %d not below adaptive peak %d", res.PeakWords, refRes.PeakWords)
	}
	res.PeakWords = refRes.PeakWords
	if !reflect.DeepEqual(res, refRes) {
		t.Errorf("window budget changed the result:\n got %+v\nwant %+v", res, refRes)
	}
}

// TestStreamingSerialFallback pins streaming on a small mesh: a
// multi-flow remap of 384 elements still streams below its whole payload,
// and a single-window plan's peak is the whole payload.
func TestStreamingSerialFallback(t *testing.T) {
	m := meshgen.SmallBox()
	g := dual.Build(m)
	d := NewDist(m, 4, partition.Partition(g, 4, partition.MethodInertial))
	newOwner := d.Owners()
	for v := range newOwner {
		newOwner[v] = (newOwner[v] + 1) % 4
	}
	res, err := d.ExecuteRemap(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakWords >= res.Moved*recWords && res.Sets > 1 {
		t.Errorf("multi-flow peak %d not below total %d", res.PeakWords, res.Moved*recWords)
	}

	// A budget covering everything yields exactly one window whose peak
	// is the total.
	d.SetOwners(partition.Partition(g, 4, partition.MethodInertial))
	one, err := d.executeRemap(newOwner, machine.SP2(), res.Moved*recWords, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.PeakWords != one.Moved*recWords {
		t.Errorf("one-window budget peak %d, want total %d", one.PeakWords, one.Moved*recWords)
	}
}
