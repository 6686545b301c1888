package par

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

var updateGolden = flag.Bool("update", false, "rewrite the adaption goldens in testdata")

// checkAdaptGolden compares run, printed with %+v (which spells every
// float64 exactly), against testdata/name. Regenerate with -update only
// when a change moves an adaption charge on purpose.
func checkAdaptGolden(t *testing.T, name string, run adaptRun) {
	t.Helper()
	got := fmt.Sprintf("%+v\n", run)
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: adaption differs from the golden:\n got %s\nwant %s", name, got, want)
	}
}

// TestAdaptChargeDeterministic is the regression test for the map-order
// nondeterminism of the old classification/consistency charging: the
// classification queries in ParallelRefine and the shared-mark batch in
// ParallelCoarsen were charged in Go map iteration order, so two
// identical runs could report different modeled times. They now
// accumulate in sorted (src, dst) pair order, and every run must match
// its committed golden bit for bit, which also pins both passes'
// AdaptTimings against refactoring.
func TestAdaptChargeDeterministic(t *testing.T) {
	for _, p := range []int{1, 4, 8} {
		run := runAdaptPass(t, p)
		if run.RefineTm.Marked == 0 || p > 1 && (run.RefineTm.Msgs == 0 || run.CoarsenTm.Msgs == 0) {
			t.Fatalf("P=%d: fixture exchanged nothing interesting: %+v", p, run.RefineTm)
		}
		checkAdaptGolden(t, fmt.Sprintf("adapt_p%d.golden", p), run)
	}
}
