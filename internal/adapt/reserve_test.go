package adapt

import (
	"testing"

	"plum/internal/geom"
	"plum/internal/meshgen"
)

// checkedRounds runs refinement rounds to conformity the way Refine does,
// holding each round's slab growth to what roundGrowth reserved for it:
// vertices, elements and boundary faces exactly, edges exactly when
// exactEdges (a conforming mesh) and from above otherwise.
func checkedRounds(t *testing.T, a *Adaptor, exactEdges bool, what string) {
	t.Helper()
	m := a.M
	for round := 0; ; round++ {
		a.propagate()
		nv, ne, nt, nf := a.roundGrowth()
		v0, e0, t0, f0 := len(m.Verts), len(m.Edges), len(m.Elems), len(m.Faces)
		st := a.refineRound()
		gv, ge, gt, gf := len(m.Verts)-v0, len(m.Edges)-e0, len(m.Elems)-t0, len(m.Faces)-f0
		if gv != nv || gt != nt || gf != nf {
			t.Fatalf("%s round %d: grew by %d verts, %d elems, %d faces; reserved %d, %d, %d",
				what, round, gv, gt, gf, nv, nt, nf)
		}
		if ge > ne || (exactEdges && ge != ne) {
			t.Fatalf("%s round %d: grew by %d edges, reserved %d (exact=%v)", what, round, ge, ne, exactEdges)
		}
		if st.TotalSubdivided() == 0 && st.FacesSubdivided == 0 {
			return
		}
		// Later rounds of one pass start from a mesh the pass has not yet
		// made conforming.
		exactEdges = false
	}
}

// TestRoundReservation pins the per-round reservation: on a conforming
// mesh the counts taken from the propagated patterns equal what the round
// creates on all four slabs; re-refinement after coarsening may only
// over-reserve edges.
func TestRoundReservation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		m := meshgen.Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
		a := New(m)
		for cycle := 0; cycle < 3; cycle++ {
			a.MarkRandom(0.04+0.03*float64(seed), MarkRefine, seed+int64(cycle))
			checkedRounds(t, a, true, "refine")

			a.MarkRandom(0.3, MarkCoarsen, 100*seed+int64(cycle))
			a.removeMarked()
			checkedRounds(t, a, false, "re-refine")
			if err := m.Check(); err != nil {
				t.Fatalf("seed %d cycle %d: %v", seed, cycle, err)
			}
		}
	}
}
