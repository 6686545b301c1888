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

// TestAdaptWorkerParity is the determinism contract of the parallel
// adaption engine: the marks (hence the mesh), the kernel stats, the whole
// AdaptTimings — modeled float times, rounds, Msgs, Words and ops
// included — must be byte-identical for workers ∈ {1, 2, 4, 8}.
func TestAdaptWorkerParity(t *testing.T) {
	// The notifications travel on the flat schedule, one message per
	// (src, dst) pair; the subtest is named after it.
	t.Run("flat", testAdaptWorkerParity)
}

func testAdaptWorkerParity(t *testing.T) {
	const p = 8
	ref := runAdaptPass(t, p, 1)
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
			if g, r := pair[0], pair[1]; !reflect.DeepEqual(g, r) {
				t.Errorf("workers=%d %s: AdaptTimings diverge:\n got %+v\nwant %+v", w, pass, g, r)
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
