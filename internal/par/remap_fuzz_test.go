package par

import (
	"cmp"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/remap"
)

// splitmix64 is the deterministic per-vertex hash driving the fuzzed
// ownership flips (no RNG state, so flips are independent of order).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4b9b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FuzzExecuteRemap fuzzes the remap's flow list and its execution over
// four random steps on a 4-rank SmallBox, two bits of ops each: a remap
// (0), a refinement (1, 3) or a coarsening (2). After every step, under
// weights fresh from the mesh, the dual-graph count remap.Flows of a
// random ownership flip must equal the element-slab oracle countFlows —
// canonical order, no empty flow, no self-move — and a remap step then
// executes that same list, which must move every element it names and
// land the new ownership.
func FuzzExecuteRemap(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(42), uint8(3))
	f.Add(uint64(0xdeadbeef), uint8(7))
	f.Add(uint64(7), uint8(0b00_10_01_01)) // refine, refine, coarsen, remap
	f.Fuzz(func(t *testing.T, seed uint64, ops uint8) {
		const p = 4
		mdl := machine.SP2()
		m := meshgen.SmallBox()
		g := dual.Build(m)
		d := NewDist(m, p, partition.Partition(g, p, partition.MethodHilbertSFC))
		a := adapt.New(m)
		for step := range 4 {
			op := ops >> (2 * step) & 3
			switch op {
			case 1, 3:
				a.MarkRandom(0.08, adapt.MarkRefine, int64(seed)+int64(step))
				d.ParallelRefine(a, mdl)
			case 2:
				a.MarkRandom(0.5, adapt.MarkCoarsen, int64(seed)+int64(step))
				d.ParallelCoarsen(a, mdl)
			}
			g.UpdateWeights(m)

			newOwner := d.Owners()
			for v := range newOwner {
				h := splitmix64(seed + uint64(step)<<32 + uint64(v))
				if h%4 != 0 { // flip ~3/4 of the trees
					newOwner[v] = int32(h % p)
				}
			}
			flows := remap.Flows(new(machine.Pairs), d.OwnersView(), newOwner, g.Wremap)
			if want := countFlows(m, d.OwnersView(), newOwner); !slices.Equal(flows, want) {
				t.Fatalf("step %d: dual-graph flows %v, element slab %v", step, flows, want)
			}
			var moved int64
			for i, fl := range flows {
				if fl.Words <= 0 || fl.Src == fl.Dst ||
					i > 0 && cmp.Or(cmp.Compare(flows[i-1].Src, fl.Src), cmp.Compare(flows[i-1].Dst, fl.Dst)) >= 0 {
					t.Fatalf("step %d: flow list %v is not the canonical list of nonempty pairs", step, flows)
				}
				moved += fl.Words
			}
			if op != 0 {
				continue
			}
			res, err := d.ExecuteRemap(newOwner, flows, mdl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Moved != moved || res.Sets != len(flows) {
				t.Fatalf("step %d: executed remap moved %d in %d sets, want %d in %d", step, res.Moved, res.Sets, moved, len(flows))
			}
			if !slices.Equal(d.OwnersView(), newOwner) {
				t.Fatalf("step %d: ownership not updated to newOwner", step)
			}
		}
	})
}
