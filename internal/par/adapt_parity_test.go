package par

import (
	"reflect"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// adaptFixture distributes a parallel-scale box mesh (large enough to
// engage the chunked slab scans and, with dense marks, the engine's
// parallel frontier rounds) over p ranks with the given worker knob.
func adaptFixture(t testing.TB, p, w int) (*Dist, *adapt.Adaptor) {
	t.Helper()
	m := meshgen.Box(12, 12, 12, geom.Vec3{X: 1, Y: 1, Z: 1}) // 10368 elements
	g := dual.Build(m)
	d := NewDist(m, p, partition.Partition(g, p, partition.MethodInertial))
	d.Workers = w
	return d, adapt.New(m)
}

// adaptRun executes one refine pass plus one coarsen pass and returns
// every observable: stats and timings for both, and the mesh census.
type adaptRun struct {
	RefineSt  adapt.RefineStats
	RefineTm  AdaptTimings
	CoarsenSt adapt.CoarsenStats
	CoarsenTm AdaptTimings
	Elems     int
	Edges     int
}

func runAdaptPass(t testing.TB, p, w int) adaptRun {
	t.Helper()
	d, a := adaptFixture(t, p, w)
	var out adaptRun
	a.MarkRandom(0.25, adapt.MarkRefine, 97)
	out.RefineSt, out.RefineTm = d.ParallelRefine(a, machine.SP2())
	a.MarkRandom(0.30, adapt.MarkCoarsen, 43)
	out.CoarsenSt, out.CoarsenTm = d.ParallelCoarsen(a, machine.SP2())
	out.Elems = d.M.NumActiveElems()
	out.Edges = d.M.NumActiveEdges()
	if err := d.M.Check(); err != nil {
		t.Fatalf("mesh invalid after adaption: %v", err)
	}
	return out
}

// normCrit zeroes the critical-path op shares, the only AdaptTimings
// fields allowed to vary with the worker knob (they reflect the effective
// worker count actually used).
func normCrit(tm AdaptTimings) AdaptTimings {
	tm.Ops.Crit, tm.Ops.MemCrit = 0, 0
	return tm
}

// TestAdaptWorkerParity is the determinism contract of the parallel
// adaption engine: the marks (hence the mesh), the kernel stats, the whole
// AdaptTimings — modeled float times, rounds, Msgs, Words included — and
// the op totals must be byte-identical for workers ∈ {1, 2, 4, 8}.
func TestAdaptWorkerParity(t *testing.T) {
	// The notifications travel on the flat schedule, one message per
	// (src, dst) pair; the subtest is named after it.
	t.Run("flat", testAdaptWorkerParity)
}

func testAdaptWorkerParity(t *testing.T) {
	const p = 8
	ref := runAdaptPass(t, p, 1)
	if ref.RefineTm.Ops.Crit != ref.RefineTm.Ops.Total ||
		ref.CoarsenTm.Ops.Crit != ref.CoarsenTm.Ops.Total {
		t.Fatalf("workers=1 must report Crit == Total: refine %+v coarsen %+v",
			ref.RefineTm.Ops, ref.CoarsenTm.Ops)
	}
	if ref.RefineTm.Msgs == 0 || ref.RefineTm.Marked == 0 || ref.CoarsenTm.Msgs == 0 {
		t.Fatalf("fixture exchanged nothing interesting: %+v", ref.RefineTm)
	}
	for _, w := range []int{2, 4, 8} {
		got := runAdaptPass(t, p, w)
		if got.RefineSt != ref.RefineSt || got.CoarsenSt != ref.CoarsenSt {
			t.Errorf("workers=%d: kernel stats diverge", w)
		}
		if got.Elems != ref.Elems || got.Edges != ref.Edges {
			t.Errorf("workers=%d: mesh diverges: %d/%d vs %d/%d",
				w, got.Elems, got.Edges, ref.Elems, ref.Edges)
		}
		for pass, pair := range map[string][2]AdaptTimings{
			"refine":  {got.RefineTm, ref.RefineTm},
			"coarsen": {got.CoarsenTm, ref.CoarsenTm},
		} {
			g, r := pair[0], pair[1]
			if g.Ops.Total != r.Ops.Total || g.Ops.MemTotal != r.Ops.MemTotal {
				t.Errorf("workers=%d %s: op totals not worker-invariant: %d/%d vs %d/%d",
					w, pass, g.Ops.Total, g.Ops.MemTotal, r.Ops.Total, r.Ops.MemTotal)
			}
			if g.Ops.Crit > g.Ops.Total || g.Ops.MemCrit > g.Ops.MemTotal {
				t.Errorf("workers=%d %s: critical path exceeds total: %+v", w, pass, g.Ops)
			}
			if !reflect.DeepEqual(normCrit(g), normCrit(r)) {
				t.Errorf("workers=%d %s: AdaptTimings diverge:\n got %+v\nwant %+v",
					w, pass, normCrit(g), normCrit(r))
			}
		}
	}
}

// TestAdaptChargeDeterministic is the regression test for the map-order
// nondeterminism of the old classification/consistency charging: the
// classification queries in ParallelRefine and the shared-mark batch in
// ParallelCoarsen were charged in Go map iteration order, so two
// identical runs could report different modeled times. They now
// accumulate in sorted (src, dst) pair order and must be bit-identical.
func TestAdaptChargeDeterministic(t *testing.T) {
	run := func() adaptRun {
		return runAdaptPass(t, 8, 4)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical adaptions differ:\n  %+v\n  %+v", a, b)
	}
}

// TestAdaptSerialFallbackCritEqualsTotal pins the cost model to the
// execution path: below the serial cutoffs a large worker knob must not
// discount the critical path.
func TestAdaptSerialFallbackCritEqualsTotal(t *testing.T) {
	m := meshgen.SmallBox() // 384 elements: far below every cutoff
	g := dual.Build(m)
	d := NewDist(m, 4, partition.Partition(g, 4, partition.MethodInertial))
	d.Workers = 8
	a := adapt.New(m)
	a.MarkRandom(0.15, adapt.MarkRefine, 7)
	_, tm := d.ParallelRefine(a, machine.SP2())
	if tm.Ops.Total == 0 {
		t.Fatal("no ops reported")
	}
	if tm.Ops.Crit != tm.Ops.Total || tm.Ops.MemCrit != tm.Ops.MemTotal {
		t.Errorf("serial fallback must report Crit == Total: %+v", tm.Ops)
	}
	a.MarkRandom(0.3, adapt.MarkCoarsen, 9)
	_, ctm := d.ParallelCoarsen(a, machine.SP2())
	if ctm.Ops.Crit != ctm.Ops.Total || ctm.Ops.MemCrit != ctm.Ops.MemTotal {
		t.Errorf("coarsen serial fallback must report Crit == Total: %+v", ctm.Ops)
	}
}
