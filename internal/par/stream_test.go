package par

import (
	"reflect"
	"testing"

	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// budgets is the window-budget axis of the executor parity tests: the
// whole payload in one window (ExecuteRemap), the adaptive eighth
// (ExecuteRemapStreaming), and a budget far below any realistic flow — one
// flow per window.
var budgets = []struct {
	name  string
	words int64
}{{"whole", wholePayload}, {"adaptive", 0}, {"64", 64}}

// TestRemapStreamingParity is the determinism contract of the window
// budget: under every budget and at every worker count the RemapResult —
// payload conservation, owner array, modeled float times, op accounting —
// must be byte-identical to the bulk-synchronous entry point. Only
// PeakWords may (and, below the whole payload, must) differ: the streaming
// peak is the largest window, strictly below the whole-buffer total on
// this multi-flow fixture.
func TestRemapStreamingParity(t *testing.T) {
	const p = 8
	refD, newOwner := bigFixture(t, p)
	refD.Workers = 1
	refRes, err := refD.ExecuteRemap(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	total := refRes.Moved * recWords
	if refRes.PeakWords != total {
		t.Fatalf("bulk peak %d != total payload %d", refRes.PeakWords, total)
	}

	for _, b := range budgets {
		for _, w := range []int{1, 2, 4, 8} {
			d, _ := bigFixture(t, p)
			d.Workers = w
			res, err := d.executeRemap(newOwner, machine.SP2(), b.words, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
				t.Fatalf("budget=%s workers=%d: owner array diverges from bulk", b.name, w)
			}
			switch whole := b.words == wholePayload; {
			case whole && res.PeakWords != total:
				t.Errorf("workers=%d: whole-payload peak %d != total %d", w, res.PeakWords, total)
			case !whole && (res.PeakWords <= 0 || res.PeakWords >= total):
				t.Errorf("budget=%s workers=%d: streaming peak %d not strictly below total %d",
					b.name, w, res.PeakWords, total)
			}
			// The prediction contract holds under every budget.
			if pred := PredictRemapOps(len(d.M.Elems), res.Moved, res.Sets, p, w); pred != res.Ops {
				t.Errorf("budget=%s workers=%d: predicted %+v, executed %+v", b.name, w, pred, res.Ops)
			}
			// Everything except the peak and the worker-dependent critical
			// shares must be bit-identical to the workers=1 bulk reference.
			res.PeakWords = refRes.PeakWords
			res.Ops.Crit, res.Ops.MemCrit = refRes.Ops.Crit, refRes.Ops.MemCrit
			if !reflect.DeepEqual(res, refRes) {
				t.Errorf("budget=%s workers=%d: RemapResult diverges:\n got %+v\nwant %+v", b.name, w, res, refRes)
			}
		}
	}

	// The streaming entry point is the adaptive budget.
	d, _ := bigFixture(t, p)
	d.Workers = 1
	res, err := d.ExecuteRemapStreaming(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := bigFixture(t, p)
	d2.Workers = 1
	if want, _ := d2.executeRemap(newOwner, machine.SP2(), 0, nil); !reflect.DeepEqual(res, want) {
		t.Errorf("ExecuteRemapStreaming diverges from the adaptive budget:\n got %+v\nwant %+v", res, want)
	}
}

// TestStreamingWindowBudget pins the window planner: an explicit tiny
// budget forces many windows without changing any result byte, and the
// peak never exceeds max(budget, largest flow).
func TestStreamingWindowBudget(t *testing.T) {
	const p = 8
	refD, newOwner := bigFixture(t, p)
	refD.Workers = 4
	refRes, err := refD.ExecuteRemapStreaming(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}

	d, _ := bigFixture(t, p)
	d.Workers = 4
	// The largest flow is the atomic commit unit, so the peak is exactly
	// the largest single flow under a sub-flow budget (indexed before the
	// execution flips the ownership).
	fi := collectFlowIndex(d.M, d.rootDual, d.Owners(), newOwner, p, 1)
	// 64 words is far below any realistic flow: one flow per window.
	res, err := d.executeRemap(newOwner, machine.SP2(), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
		t.Fatal("tiny window budget changed the owner array")
	}
	var largest int64
	for f := range fi.flows {
		largest = max(largest, fi.flowStart[f+1]-fi.flowStart[f])
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

// TestStreamingSerialFallback mirrors the bulk serial-fallback contract:
// below SerialCutoff elements the streaming executor reports Crit ==
// Total, and a single-window plan degenerates to the bulk peak.
func TestStreamingSerialFallback(t *testing.T) {
	m := meshgen.SmallBox()
	g := dual.Build(m)
	d := NewDist(m, 4, partition.Partition(g, 4, partition.MethodGraphGrow))
	d.Workers = 8
	newOwner := d.Owners()
	for v := range newOwner {
		newOwner[v] = (newOwner[v] + 1) % 4
	}
	res, err := d.ExecuteRemapStreaming(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops.Crit != res.Ops.Total || res.Ops.MemCrit != res.Ops.MemTotal {
		t.Errorf("serial fallback must report Crit == Total: %+v", res.Ops)
	}
	if res.PeakWords >= res.Moved*recWords && res.Sets > 1 {
		t.Errorf("multi-flow peak %d not below total %d", res.PeakWords, res.Moved*recWords)
	}

	// A budget covering everything yields exactly one window whose peak
	// is the bulk total.
	d.SetOwners(partition.Partition(g, 4, partition.MethodGraphGrow))
	one, err := d.executeRemap(newOwner, machine.SP2(), res.Moved*recWords, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.PeakWords != one.Moved*recWords {
		t.Errorf("whole-payload budget peak %d, want total %d", one.PeakWords, one.Moved*recWords)
	}
}
