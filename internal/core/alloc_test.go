package core

import (
	"runtime"
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// TestCycleAllocBudget pins the allocation shape of the cycle hot path:
// refinement allocates per round (one regrowth per object slab, one block
// per list kind), never per object. A cycle that neither adapts nor remaps
// stays under a small constant at any mesh size, and an adapting,
// remapping cycle under a budget that depends on its propagation rounds
// but not on how many elements it creates — the same budget holds for a
// cycle creating a few thousand elements and one creating ten times more.
// Workers is pinned because every chunked scan allocates per worker.
func TestCycleAllocBudget(t *testing.T) {
	const (
		idleBudget    = 150 // measured 70
		adaptBase     = 800 // measured 620-740 at two rounds
		adaptPerRound = 200
	)
	for _, n := range []int{12, 18} {
		m := meshgen.Box(n, n, n, geom.Vec3{X: 1, Y: 1, Z: 1})
		cfg := DefaultConfig(8)
		cfg.Method = partition.MethodHilbertSFC
		cfg.Workers = 2
		f, err := New(m, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var created []int
		for c, radius := range []float64{0, 0.3, 0.5, 0} {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			rep, err := f.Cycle(func(a *adapt.Adaptor) {
				if radius > 0 {
					a.MarkRegion(geom.Sphere{Radius: radius}, adapt.MarkRefine)
				}
			})
			runtime.ReadMemStats(&ms1)
			if err != nil {
				t.Fatal(err)
			}
			allocs := int(ms1.Mallocs - ms0.Mallocs)
			if radius == 0 {
				if rep.Refine.NewElems != 0 || rep.Balance.Accepted {
					t.Fatalf("n=%d cycle %d: idle cycle adapted or remapped", n, c)
				}
				if allocs > idleBudget {
					t.Errorf("n=%d cycle %d: idle cycle allocated %d times, budget %d", n, c, allocs, idleBudget)
				}
				continue
			}
			created = append(created, rep.Refine.NewElems)
			if budget := adaptBase + adaptPerRound*rep.AdaptTime.CommRounds; allocs > budget {
				t.Errorf("n=%d cycle %d: %d new elements in %d rounds allocated %d times, budget %d",
					n, c, rep.Refine.NewElems, rep.AdaptTime.CommRounds, allocs, budget)
			}
		}
		if created[0] == 0 || created[1] < 10*created[0] {
			t.Fatalf("n=%d: cycles created %v elements, want a tenfold spread", n, created)
		}
	}
}
