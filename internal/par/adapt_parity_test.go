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

// adaptFixture distributes a 10368-element box mesh over p ranks.
func adaptFixture(t testing.TB, p int) (*Dist, *adapt.Adaptor) {
	t.Helper()
	m := meshgen.Box(12, 12, 12, geom.Vec3{X: 1, Y: 1, Z: 1})
	g := dual.Build(m)
	d := NewDist(m, p, partition.Partition(g, p, partition.MethodHilbertSFC))
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

func runAdaptPass(t testing.TB, p int) adaptRun {
	t.Helper()
	d, a := adaptFixture(t, p)
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

// TestAdaptChargeDeterministic is the regression test for the map-order
// nondeterminism of the old classification/consistency charging: the
// classification queries in ParallelRefine and the shared-mark batch in
// ParallelCoarsen were charged in Go map iteration order, so two
// identical runs could report different modeled times. They now
// accumulate in sorted (src, dst) pair order and must be bit-identical.
func TestAdaptChargeDeterministic(t *testing.T) {
	a, b := runAdaptPass(t, 8), runAdaptPass(t, 8)
	if a.RefineTm.Msgs == 0 || a.RefineTm.Marked == 0 || a.CoarsenTm.Msgs == 0 {
		t.Fatalf("fixture exchanged nothing interesting: %+v", a.RefineTm)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical adaptions differ:\n  %+v\n  %+v", a, b)
	}
}
