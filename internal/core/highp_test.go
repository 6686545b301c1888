package core

import (
	"math"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// checkDistribution verifies the per-cycle invariants of a balanced
// framework: every dual vertex is owned by a rank in range, and the
// per-rank loads add up to the active elements.
func checkDistribution(t *testing.T, f *Framework) {
	t.Helper()
	for v, o := range f.D.Owners() {
		if o < 0 || int(o) >= f.Cfg.P {
			t.Fatalf("dual vertex %d owned by rank %d, outside [0, %d)", v, o, f.Cfg.P)
		}
	}
	var total int64
	for _, w := range f.Loads() {
		total += w
	}
	if want := int64(f.M.NumActiveElems()); total != want {
		t.Fatalf("rank loads sum to %d, mesh has %d active elements", total, want)
	}
}

// TestCycleHighP runs the whole cycle at P = 2048 — a few elements per
// rank, thousands of tiny flows — on a toy rotor: the balancer must get
// to execute a remap (its own mapper and executor no longer price it out)
// and keep the distribution sound.
func TestCycleHighP(t *testing.T) {
	const p = 2048
	rp := meshgen.DefaultRotor()
	rp.NR, rp.NTheta, rp.NZ = 10, 11, 11 // 7260 elements
	centre := geom.Vec3{X: 1.4 * math.Cos(rp.Sweep/2), Y: 1.4 * math.Sin(rp.Sweep/2)}
	cfg := DefaultConfig(p)
	cfg.Method = partition.MethodHilbertSFC
	f, err := New(meshgen.RotorDisk(rp), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for c := 0; c < 3; c++ {
		rep, err := f.Cycle(func(a *adapt.Adaptor) {
			a.MarkRegion(adapt.SphereForFraction(a.M, centre, 0.05), adapt.MarkRefine)
		})
		if err != nil {
			t.Fatal(err)
		}
		checkDistribution(t, f)
		b := rep.Balance
		t.Logf("cycle %d: imbalance %.2f -> %.2f accepted=%v moved %d in %d sets, reassign ops %d",
			c, b.ImbalanceBefore, b.ImbalanceAfter, b.Accepted, b.Remap.Moved, b.Remap.Sets, b.ReassignOps)
		if b.Accepted {
			accepted++
			if b.Remap.Moved != b.Predicted.Moved || b.Remap.Sets != b.Predicted.Sets || b.ImbalanceAfter >= b.ImbalanceBefore {
				t.Errorf("cycle %d: executed remap disagrees with its proposal: %+v", c, b)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no remap accepted at P = 2048: the balancer priced itself out")
	}
}

// moreRanksThanVertices is 3072 dual vertices over 5000 ranks, refined
// around a sphere for cycles cycles: every rank holds at most one root, so
// Wmax sits at the granularity floor (the heaviest root) from the first
// cycle on.
func moreRanksThanVertices(t *testing.T, cycles int) (*Framework, []BalanceReport) {
	t.Helper()
	cfg := DefaultConfig(5000)
	cfg.Method = partition.MethodHilbertSFC
	f, err := New(meshgen.Box(8, 8, 8, geom.Vec3{X: 1, Y: 1, Z: 1}), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reps []BalanceReport
	for c := 0; c < cycles; c++ {
		rep, err := f.Cycle(func(a *adapt.Adaptor) {
			a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Radius: 0.3}, adapt.MarkRefine)
		})
		if err != nil {
			t.Fatal(err)
		}
		checkDistribution(t, f)
		if rep.Balance.ImbalanceBefore <= cfg.ImbalanceThreshold {
			t.Fatalf("cycle %d: refinement left the mesh balanced; fixture is not exercising the balancer", c)
		}
		reps = append(reps, rep.Balance)
	}
	return f, reps
}

// TestCycleMoreRanksThanVertices balances 3072 dual vertices over 5000
// ranks: most ranks own nothing, every similarity row is a cell or two,
// and the mapper must cost what those cells cost — not the 25 M cells of
// the matrix they sit in. Every rank holds at most one root, so Cycle
// skips the pass at the granularity floor; the proposal it would have
// made is forced through propose to price the mapper.
func TestCycleMoreRanksThanVertices(t *testing.T) {
	f, reps := moreRanksThanVertices(t, 2)
	for c, b := range reps {
		if b.Repartitioned || b.WmaxOld != b.WmaxFloor {
			t.Errorf("cycle %d: Wmax %d, floor %d, repartitioned=%v: want the pass skipped at the floor",
				c, b.WmaxOld, b.WmaxFloor, b.Repartitioned)
		}
	}
	pr, err := f.propose(f.D.Alive())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("forced proposal: reassign ops %d", pr.mapOps)
	if pr.mapOps > 10_000_000 {
		t.Errorf("mapper counted %d ops for %d dual vertices", pr.mapOps, f.G.N)
	}
}

// TestBalanceSkipsOnlyAtTheFloor pins that the floor skip drops no
// decision: at the floor a forced proposal cannot lower Wmax (its gain is
// ≤ 0, so the rule would reject it), and one weight unit above the floor
// the pass repartitions again.
func TestBalanceSkipsOnlyAtTheFloor(t *testing.T) {
	f, reps := moreRanksThanVertices(t, 1)
	b := reps[0]
	if b.Repartitioned || b.WmaxOld != b.WmaxFloor {
		t.Fatalf("Wmax %d, floor %d, repartitioned=%v: fixture is not at the floor", b.WmaxOld, b.WmaxFloor, b.Repartitioned)
	}
	alive := f.D.Alive()
	pr, err := f.propose(alive)
	if err != nil {
		t.Fatal(err)
	}
	if wmaxNew := slices.Max(pr.loads(f.G.Wcomp, len(alive))); wmaxNew < b.WmaxOld {
		t.Errorf("forced proposal reaches Wmax %d below the floor %d", wmaxNew, b.WmaxOld)
	}

	// Put a weight-1 root beside the heaviest one: Wmax is the floor + 1.
	owners := f.D.Owners()
	heavy := slices.Index(f.G.Wcomp, slices.Max(f.G.Wcomp))
	light := slices.IndexFunc(f.G.Wcomp, func(w int64) bool { return w == 1 })
	if light < 0 {
		t.Fatal("no unrefined root left")
	}
	owners[light] = owners[heavy]
	f.D.SetOwners(owners)
	above, err := f.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if above.WmaxOld != above.WmaxFloor+1 || !above.Repartitioned {
		t.Errorf("Wmax %d, floor %d, repartitioned=%v: want a repartition one unit above the floor",
			above.WmaxOld, above.WmaxFloor, above.Repartitioned)
	}
}
