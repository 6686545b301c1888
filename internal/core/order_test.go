package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// refineThenBalance replays cycle c in the order Cycle ran before it
// balanced between the closure and the subdivision, as bench/run.go's
// replayCycle still runs it: ParallelRefine on the current owners, then a
// standalone Balance on the refined mesh. With Config.Overlap off the
// standalone pass charges what the cycle's would.
func refineThenBalance(f *Framework, c int, mark func(*adapt.Adaptor)) (CycleReport, error) {
	var rep CycleReport
	f.D.FaultCycle = c
	f.Loads()
	mark(f.A)
	rep.Refine, rep.AdaptTime = f.D.ParallelRefine(f.A, f.Cfg.Model)
	f.M.ResetLog()
	bal, err := f.Balance()
	rep.Balance, rep.Outcome = bal, bal.Outcome
	return rep, err
}

// TestCycleMatchesRefineThenBalance holds Cycle's stage order to the order
// it replaced: balancing on the weights the closed marks predict, moving
// the unrefined trees and subdividing on the balanced owners leaves, cycle
// by cycle, the same owners, dual weights, active elements, element
// slots, outcome and post-balance imbalance as subdividing first and
// balancing the refined mesh — on SmallBox and a toy rotor, for hilbert and multilevel, without
// faults and under a crash+drop plan. The remaps themselves differ: they
// move fewer elements.
func TestCycleMatchesRefineThenBalance(t *testing.T) {
	rp := meshgen.DefaultRotor()
	rp.NR, rp.NTheta, rp.NZ = 6, 8, 6
	centre := geom.Vec3{X: 1.4 * math.Cos(rp.Sweep/2), Y: 1.4 * math.Sin(rp.Sweep/2)}
	meshes := []struct {
		name  string
		build func() *mesh.Mesh
		mark  func(c int) func(*adapt.Adaptor)
	}{
		{"SmallBox", meshgen.SmallBox, func(c int) func(*adapt.Adaptor) {
			r := 0.7 * math.Pow(0.8, float64(c))
			return func(a *adapt.Adaptor) { a.MarkRegion(geom.Sphere{Radius: r}, adapt.MarkRefine) }
		}},
		{"rotor", func() *mesh.Mesh { return meshgen.RotorDisk(rp) }, func(c int) func(*adapt.Adaptor) {
			return func(a *adapt.Adaptor) {
				a.MarkRegion(adapt.SphereForFraction(a.M, centre, 0.05), adapt.MarkRefine)
			}
		}},
	}
	plans := []*fault.Plan{nil, {Seed: 15, Rate: 0.15, Kinds: []fault.Kind{fault.Crash, fault.Drop}}}
	for _, ms := range meshes {
		for _, method := range []partition.Method{partition.MethodHilbertSFC, partition.MethodMultilevel} {
			for _, plan := range plans {
				name := fmt.Sprintf("%s/%v/%v", ms.name, method, plan)
				cfg := DefaultConfig(8)
				cfg.Method, cfg.Faults = method, plan
				cfg.Retry = fault.Budget(8)
				cycled, err := New(ms.build(), nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := New(ms.build(), nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				accepted, moved, movedReplay := 0, int64(0), int64(0)
				outcomes := map[BalanceOutcome]int{}
				for c := 0; c < 4; c++ {
					got, err := cycled.Cycle(ms.mark(c))
					if err != nil {
						t.Fatalf("%s cycle %d: %v", name, c, err)
					}
					want, err := refineThenBalance(replayed, c, ms.mark(c))
					if err != nil {
						t.Fatalf("%s cycle %d (replay): %v", name, c, err)
					}
					if g, w := cycled.D.Owners(), replayed.D.Owners(); !slices.Equal(g, w) {
						t.Fatalf("%s cycle %d: owners differ from the replay's", name, c)
					}
					if !slices.Equal(cycled.G.Wcomp, replayed.G.Wcomp) || !slices.Equal(cycled.G.Wremap, replayed.G.Wremap) {
						t.Errorf("%s cycle %d: the dual weights differ from the replay's refined mesh", name, c)
					}
					if g, w := cycled.M.NumActiveElems(), replayed.M.NumActiveElems(); g != w {
						t.Errorf("%s cycle %d: %d active elements, replay %d", name, c, g, w)
					}
					if g, w := len(cycled.M.Elems), len(replayed.M.Elems); g != w {
						t.Errorf("%s cycle %d: %d element slots, replay %d", name, c, g, w)
					}
					if got.Outcome != want.Outcome {
						t.Errorf("%s cycle %d: outcome %v, replay %v", name, c, got.Outcome, want.Outcome)
					}
					if g, w := got.Balance.ImbalanceAfter, want.Balance.ImbalanceAfter; g != w {
						t.Errorf("%s cycle %d: ImbalanceAfter %v, replay %v", name, c, g, w)
					}
					if got.Balance.Accepted {
						accepted++
						moved += got.Balance.Remap.Moved
						movedReplay += want.Balance.Remap.Moved
					}
					outcomes[got.Outcome]++
				}
				if accepted == 0 {
					t.Errorf("%s: no remap accepted, nothing compared", name)
				}
				if moved >= movedReplay {
					t.Errorf("%s: the cycle's remaps moved %d elements, the replay's %d: want fewer", name, moved, movedReplay)
				}
				if plan != nil && outcomes[OutcomeRecovered] == 0 {
					t.Errorf("%s: no cycle recovered a crash (%v)", name, outcomes)
				}
			}
		}
	}
}

// TestCycleCarryRoundIsAnError hands the framework a mesh whose edge 0 is
// bisected and whose first half is bisected again, with the elements on
// edge 0 unsplit. The cycle's first round subdivides them, as the
// prediction counts, and a child on the split half needs a carry round,
// which the prediction cannot see: the cycle fails with a
// *CarryRoundError, after it has subdivided the mesh and re-read the
// weights.
func TestCycleCarryRoundIsAnError(t *testing.T) {
	m := meshgen.SmallBox()
	m.BisectEdge(0)
	m.BisectEdge(m.Edge(0).Child[0])
	f, err := New(m, nil, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Cycle(func(*adapt.Adaptor) {})
	var ce *CarryRoundError
	if !errors.As(err, &ce) {
		t.Fatalf("Cycle returned %v, want a *CarryRoundError", err)
	}
	if ce.Created <= ce.Predicted || int64(rep.Refine.NewElems) != ce.Created {
		t.Errorf("%v: the cycle created %d elements", ce, rep.Refine.NewElems)
	}
	if w, n := f.G.TotalWcomp(), int64(f.M.NumActiveElems()); w != n {
		t.Errorf("ΣWcomp %d after the cycle, %d active elements", w, n)
	}
}
