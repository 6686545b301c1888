package par

import (
	"reflect"
	"testing"

	"plum/internal/adapt"
	"plum/internal/fault"
	"plum/internal/machine"
)

// runAdaptFaultPass is runAdaptPass with a fault plan armed on the Dist:
// the adaption notification exchanges draw modeled faults and the passes
// report the retry traffic in AdaptTimings.
func runAdaptFaultPass(t testing.TB, p int, plan *fault.Plan, cycle int) adaptRun {
	t.Helper()
	d, a := adaptFixture(t, p)
	d.Faults = plan
	d.Retry = fault.Budget(3)
	d.FaultCycle = cycle
	var out adaptRun
	a.MarkRandom(0.25, adapt.MarkRefine, 97)
	out.RefineSt, out.RefineTm = d.ParallelRefine(a, machine.SP2())
	a.MarkRandom(0.30, adapt.MarkCoarsen, 43)
	out.CoarsenSt, out.CoarsenTm = d.ParallelCoarsen(a, machine.SP2())
	out.Elems = d.M.NumActiveElems()
	out.Edges = d.M.NumActiveEdges()
	return out
}

// stripFaultTimes zeroes the timing fields the modeled retry charges flow
// into, plus the retry counters themselves, so a faulted pass can be
// compared structurally against the fault-free reference.
func stripFaultTimes(tm AdaptTimings) AdaptTimings {
	tm.Target, tm.Propagate, tm.Execute, tm.Classify, tm.Total = 0, 0, 0, 0, 0
	tm.Retries, tm.Backoff, tm.Exhausted = 0, 0, 0
	return tm
}

// TestAdaptFaultCharges is the adaption half of the fault determinism
// contract: a fault plan never changes the marks, the mesh, or the
// traffic counts — faults on the notification exchanges are modeled, the
// notifications themselves always arrive — it only adds retry charges to
// the modeled clock and leaves a retry trace.
func TestAdaptFaultCharges(t *testing.T) {
	// The notifications travel on the flat schedule, one message per
	// (src, dst) pair; the subtest is named after it.
	t.Run("flat", testAdaptFaultCharges)
}

func testAdaptFaultCharges(t *testing.T) {
	const p = 8
	plan := &fault.Plan{Seed: 2026, Rate: 0.3}
	clean := runAdaptPass(t, p)
	got := runAdaptFaultPass(t, p, plan, 1)
	if got.RefineSt != clean.RefineSt || got.CoarsenSt != clean.CoarsenSt ||
		got.Elems != clean.Elems || got.Edges != clean.Edges {
		t.Fatal("fault plan changed the adaption result")
	}
	if got.RefineTm.Retries == 0 || got.RefineTm.Backoff == 0 {
		t.Errorf("refine left no retry trace: %+v", got.RefineTm)
	}
	if got.CoarsenTm.Backoff == 0 {
		t.Errorf("coarsen left no retry trace: %+v", got.CoarsenTm)
	}
	if got.RefineTm.Total <= clean.RefineTm.Total {
		t.Errorf("retry charges missing from refine clock: %g vs %g",
			got.RefineTm.Total, clean.RefineTm.Total)
	}
	if !reflect.DeepEqual(stripFaultTimes(got.RefineTm), stripFaultTimes(clean.RefineTm)) {
		t.Errorf("faults changed refine beyond times:\n got %+v\nwant %+v",
			stripFaultTimes(got.RefineTm), stripFaultTimes(clean.RefineTm))
	}
	checkAdaptGolden(t, "adapt_fault_p8.golden", got)
}

// TestAdaptZeroRatePlanIsClean pins byte parity at the adaption level: a
// present-but-empty plan must leave the engine without a fault model and
// reproduce the fault-free run's golden exactly, and two different fault
// cycles over the same plan must draw different schedules.
func TestAdaptZeroRatePlanIsClean(t *testing.T) {
	const p = 8
	checkAdaptGolden(t, "adapt_p8.golden", runAdaptFaultPass(t, p, &fault.Plan{Seed: 1, Rate: 0}, 1))

	plan := &fault.Plan{Seed: 11, Rate: 0.4}
	c1 := runAdaptFaultPass(t, p, plan, 1)
	c2 := runAdaptFaultPass(t, p, plan, 2)
	if c1.RefineTm.Retries == c2.RefineTm.Retries && c1.RefineTm.Backoff == c2.RefineTm.Backoff &&
		c1.CoarsenTm.Backoff == c2.CoarsenTm.Backoff {
		t.Error("two fault cycles drew identical retry schedules")
	}
}
