package par

import (
	"reflect"
	"testing"

	"plum/internal/adapt"
	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/propagate"
)

// runAdaptFaultPass is runAdaptPass with a fault plan armed on the Dist:
// the adaption notification exchanges draw modeled faults and the passes
// report the retry traffic in AdaptTimings.
func runAdaptFaultPass(t testing.TB, p, w int, prop machine.Exchange, plan *fault.Plan, cycle int) adaptRun {
	t.Helper()
	d, a := adaptFixture(t, p, w, prop)
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
	tm.Ops.Crit, tm.Ops.MemCrit = 0, 0
	return tm
}

// TestAdaptFaultCharges is the adaption half of the fault determinism
// contract: a fault plan never changes the marks, the mesh, or the
// traffic counts — faults on the notification exchanges are modeled, the
// notifications themselves always arrive — it only adds retry charges to
// the modeled clock and leaves a retry trace. And the whole faulted
// timing, retry traffic included, must be byte-identical at every worker
// count.
func TestAdaptFaultCharges(t *testing.T) {
	const p = 8
	plan := &fault.Plan{Seed: 2026, Rate: 0.3}
	for _, name := range propagate.Names {
		t.Run(name, func(t *testing.T) {
			prop, _ := propagate.ByName(name)
			clean := runAdaptPass(t, p, 1, prop)
			var first adaptRun
			for i, w := range []int{1, 2, 4} {
				got := runAdaptFaultPass(t, p, w, prop, plan, 1)
				if got.RefineSt != clean.RefineSt || got.CoarsenSt != clean.CoarsenSt ||
					got.Elems != clean.Elems || got.Edges != clean.Edges {
					t.Fatalf("workers=%d: fault plan changed the adaption result", w)
				}
				if got.RefineTm.Retries == 0 || got.RefineTm.Backoff == 0 {
					t.Errorf("workers=%d: refine left no retry trace: %+v", w, got.RefineTm)
				}
				if got.CoarsenTm.Backoff == 0 {
					t.Errorf("workers=%d: coarsen left no retry trace: %+v", w, got.CoarsenTm)
				}
				if got.RefineTm.Total <= clean.RefineTm.Total {
					t.Errorf("workers=%d: retry charges missing from refine clock: %g vs %g",
						w, got.RefineTm.Total, clean.RefineTm.Total)
				}
				if !reflect.DeepEqual(stripFaultTimes(got.RefineTm), stripFaultTimes(clean.RefineTm)) {
					t.Errorf("workers=%d: faults changed refine beyond times:\n got %+v\nwant %+v",
						w, stripFaultTimes(got.RefineTm), stripFaultTimes(clean.RefineTm))
				}
				if i == 0 {
					first = got
					continue
				}
				a := got
				a.RefineTm.Ops.Crit, a.RefineTm.Ops.MemCrit = first.RefineTm.Ops.Crit, first.RefineTm.Ops.MemCrit
				a.CoarsenTm.Ops.Crit, a.CoarsenTm.Ops.MemCrit = first.CoarsenTm.Ops.Crit, first.CoarsenTm.Ops.MemCrit
				if !reflect.DeepEqual(a, first) {
					t.Errorf("workers=%d: faulted adaption not worker-invariant:\n got %+v\nwant %+v",
						w, a, first)
				}
			}
		})
	}
}

// TestAdaptZeroRatePlanIsClean pins byte parity at the adaption level: a
// present-but-empty plan must leave the engine without a fault model and
// reproduce the fault-free timings exactly, and two different fault cycles over the
// same plan must draw different schedules.
func TestAdaptZeroRatePlanIsClean(t *testing.T) {
	const p = 8
	const prop = machine.ExchangeFlat
	clean := runAdaptPass(t, p, 2, prop)
	zero := runAdaptFaultPass(t, p, 2, prop, &fault.Plan{Seed: 1, Rate: 0}, 1)
	if !reflect.DeepEqual(zero, clean) {
		t.Errorf("zero-rate plan changed the adaption:\n got %+v\nwant %+v", zero, clean)
	}

	plan := &fault.Plan{Seed: 11, Rate: 0.4}
	c1 := runAdaptFaultPass(t, p, 2, prop, plan, 1)
	c2 := runAdaptFaultPass(t, p, 2, prop, plan, 2)
	if c1.RefineTm.Retries == c2.RefineTm.Retries && c1.RefineTm.Backoff == c2.RefineTm.Backoff &&
		c1.CoarsenTm.Backoff == c2.CoarsenTm.Backoff {
		t.Error("two fault cycles drew identical retry schedules")
	}
}
