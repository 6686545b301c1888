package dual_test

import (
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/par"
	"plum/internal/partition"
)

// predictScript builds a box of at most 6³ cells, refines it twice, and
// optionally coarsens a sphere of it with ParallelCoarsen; then it marks
// random edges, closes the marks on a P-rank Dist (CloseRefine), predicts
// the weights, and subdivides (FinishRefine). The predicted Wcomp and
// Wremap must equal a fresh read of the subdivided mesh, and the
// elements the prediction counted must be the ones the subdivision
// created: no carry round follows a conforming mesh's first. It returns
// whether the coarsening removed elements.
//
// Bytes: dims (nx, ny, nz ∈ 1..6), P (1..4), the first refinements'
// fraction and seed, the coarsening (bit 0 on: coarsen a sphere whose
// centre the other bits place), and the final marks' fraction and seed.
func predictScript(t *testing.T, b []byte) (coarsened bool) {
	t.Helper()
	if len(b) < 5 {
		return false
	}
	nx, ny, nz := 1+int(b[0])%6, 1+int(b[0])/6%6, 1+int(b[0])/36%6
	p := 1 + int(b[1])%4
	size := geom.Vec3{X: float64(nx), Y: float64(ny), Z: float64(nz)}
	m := meshgen.Box(nx, ny, nz, size)
	asg := make(partition.Assignment, m.NumRoots())
	for v := range asg {
		asg[v] = int32(v % p)
	}
	d := par.NewDist(m, p, asg)
	a := adapt.New(m)
	mdl := machine.SP2()
	frac := func(c byte) float64 { return float64(1+c%8) / 40 }

	for round := range 2 {
		a.MarkRandom(frac(b[2]), adapt.MarkRefine, int64(b[2])+int64(round))
		a.Refine()
	}
	if b[3]&1 != 0 {
		c := b[3] >> 1
		centre := geom.Vec3{X: size.X * float64(c&7) / 7, Y: size.Y * float64(c>>3&3) / 3, Z: size.Z * float64(c>>5&3) / 3}
		a.MarkRegion(geom.Sphere{Center: centre, Radius: 1.2}, adapt.MarkCoarsen)
		cs, _ := d.ParallelCoarsen(a, mdl)
		coarsened = cs.ElemsRemoved > 0
	}

	g := dual.Build(m)
	a.MarkRandom(frac(b[4]), adapt.MarkRefine, int64(b[4])+1)
	r := d.CloseRefine(a, mdl)
	predicted := g.PredictWeights(a)
	st, _ := d.FinishRefine(&r)
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	fresh := dual.Build(m)
	if !slices.Equal(g.Wcomp, fresh.Wcomp) || !slices.Equal(g.Wremap, fresh.Wremap) {
		t.Fatalf("predicted weights differ from the subdivided mesh's (ΣWcomp %d vs %d, ΣWremap %d vs %d)",
			g.TotalWcomp(), fresh.TotalWcomp(), g.TotalWremap(), fresh.TotalWremap())
	}
	if int64(st.NewElems) != predicted {
		t.Fatalf("the subdivision created %d elements, the prediction counted %d", st.NewElems, predicted)
	}
	return coarsened
}

// FuzzPredictWeights holds dual.Graph.PredictWeights to the weights the
// subdivision leaves (see predictScript).
func FuzzPredictWeights(f *testing.F) {
	f.Add([]byte{215, 3, 5, 0, 7})
	f.Add([]byte{43, 1, 7, 0x1b, 3})
	f.Add([]byte{124, 2, 2, 0x45, 6})
	f.Add([]byte{0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, b []byte) { predictScript(t, b) })
}

// TestPredictWeightsAfterCoarsening runs the seed scripts that coarsen
// before they predict, and checks that their coarsenings removed
// elements.
func TestPredictWeightsAfterCoarsening(t *testing.T) {
	n := 0
	for _, b := range [][]byte{{43, 1, 7, 0x1b, 3}, {124, 2, 2, 0x45, 6}} {
		if predictScript(t, b) {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("%d of 2 scripts removed elements", n)
	}
}
