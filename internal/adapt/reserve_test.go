package adapt

import (
	"testing"

	"plum/internal/geom"
	"plum/internal/meshgen"
)

// checkedRounds runs refinement rounds to conformity the way Refine does,
// holding each round's element growth to what roundGrowth reserved for
// it, exactly.
func checkedRounds(t *testing.T, a *Adaptor, what string) {
	t.Helper()
	m := a.M
	for round := 0; ; round++ {
		a.close(a.Touched())
		nt := a.roundGrowth(a.Touched())
		t0 := len(m.Elems)
		st := a.refineRound()
		if gt := len(m.Elems) - t0; gt != nt {
			t.Fatalf("%s round %d: grew by %d elems; reserved %d", what, round, gt, nt)
		}
		if st.TotalSubdivided() == 0 && st.FacesSubdivided == 0 {
			return
		}
	}
}

// TestRoundReservation pins the per-round reservation: the element count
// taken from the propagated patterns equals what the round creates, on a
// conforming mesh and in the re-refinement after coarsening alike.
func TestRoundReservation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		m := meshgen.Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
		a := New(m)
		for cycle := 0; cycle < 3; cycle++ {
			a.MarkRandom(0.04+0.03*float64(seed), MarkRefine, seed+int64(cycle))
			checkedRounds(t, a, "refine")

			a.MarkRandom(0.3, MarkCoarsen, 100*seed+int64(cycle))
			a.removeMarked()
			checkedRounds(t, a, "re-refine")
			if err := m.Check(); err != nil {
				t.Fatalf("seed %d cycle %d: %v", seed, cycle, err)
			}
		}
	}
}
