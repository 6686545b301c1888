package par

import (
	"runtime"
	"testing"

	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/remap"
)

// allocBytes returns the bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestRemapAllocScalesWithP pins the rule that nothing in the balance
// pipeline is sized by the P² rank pairs that could exchange data: on one
// fixed mesh, the bytes the mapper (remap.Build + Heuristic) and one
// executed remap allocate may grow no faster than P itself — each 4× step
// in P by at most 4.5×. A dense similarity matrix, a p×p flow table or
// per-pair exchange state grows 16× a step and fails this at once.
func TestRemapAllocScalesWithP(t *testing.T) {
	m := meshgen.Box(10, 10, 10, geom.Vec3{X: 1, Y: 1, Z: 1}) // 6000 elements
	g := dual.Build(m)
	var prevMap, prevExec uint64
	for _, p := range []int{256, 1024, 4096} {
		d := NewDist(m, p, partition.Partition(g, p, partition.MethodHilbertSFC))
		newPart := partition.Partition(g, p, partition.MethodMortonSFC)
		var mp remap.Mapping
		mapBytes := allocBytes(func() {
			sim := remap.Build(d.Owners(), newPart, g.Wremap, p, 1)
			mp, _, _ = sim.Heuristic()
		})
		newOwner := make([]int32, len(newPart))
		for v, part := range newPart {
			newOwner[v] = mp[part]
		}
		var res RemapResult
		execBytes := allocBytes(func() {
			var err error
			if res, err = d.ExecuteRemap(newOwner, remap.Flows(new(machine.Pairs), d.owner, newOwner, g.Wremap), machine.SP2()); err != nil {
				t.Fatal(err)
			}
		})
		if res.Sets < p/4 {
			t.Fatalf("P=%d: only %d flows; the fixture is not spreading the remap over the ranks", p, res.Sets)
		}
		t.Logf("P=%d: mapper %d B, executed remap (%d elements in %d sets) %d B", p, mapBytes, res.Moved, res.Sets, execBytes)
		if prevMap > 0 && (float64(mapBytes) > 4.5*float64(prevMap) || float64(execBytes) > 4.5*float64(prevExec)) {
			t.Errorf("P=%d: allocations grew faster than P over the last 4× step: mapper %d -> %d B, remap %d -> %d B",
				p, prevMap, mapBytes, prevExec, execBytes)
		}
		prevMap, prevExec = mapBytes, execBytes
	}
}

// TestFaultFreeRemapAllocs pins the allocations of a fault-free remap on a
// Dist that has remapped before: counting its flows (remap.Flows) into a
// warm accumulator and executing them allocates nothing at any P, since
// the flow list, its layout, the window plan and the charge's per-rank
// sums are all kept scratch. The budget holds from 8 ranks to 2048 (about
// 4000 flows); an allocation per flow, per rank or per remap overruns it.
func TestFaultFreeRemapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	const budget = 0
	for _, p := range []int{8, 64, 2048} {
		d, newOwner := bigFixture(t, p)
		oldOwner := d.Owners()
		wremap := dual.Build(d.M).Wremap
		var ps machine.Pairs
		// Each run counts and remaps there and back, so both legs move the
		// same flows; AllocsPerRun's warm-up run makes the Dist's first
		// remap.
		allocs := testing.AllocsPerRun(10, func() {
			for _, own := range [][]int32{newOwner, oldOwner} {
				if _, err := d.ExecuteRemap(own, remap.Flows(&ps, d.owner, own, wremap), machine.SP2()); err != nil {
					t.Fatal(err)
				}
			}
		}) / 2
		if allocs > budget {
			t.Errorf("P=%d: a fault-free remap made %v allocations, budget %v at any P", p, allocs, budget)
		}
	}
}
