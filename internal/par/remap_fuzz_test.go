package par

import (
	"reflect"
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

// FuzzExecuteRemap fuzzes the remap execution with random ownership
// flips: the flow list must hold exactly the (src, dst) pairs some live
// element moves along, in canonical order, each with its element count —
// none lost, none duplicated — and the executed remap must move them all
// and land the expected ownership.
func FuzzExecuteRemap(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(42), uint8(3))
	f.Add(uint64(0xdeadbeef), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, refineBits uint8) {
		const p = 4
		m := meshgen.SmallBox()
		g := dual.Build(m)
		d := NewDist(m, p, partition.Partition(g, p, partition.MethodHilbertSFC))
		if refineBits%2 == 1 { // half the corpus remaps an adapted mesh
			a := adapt.New(m)
			a.MarkRandom(0.08, adapt.MarkRefine, int64(refineBits))
			a.Refine()
		}

		owners := d.Owners()
		newOwner := append([]int32(nil), owners...)
		for v := range newOwner {
			h := splitmix64(seed + uint64(v))
			if h%4 != 0 { // flip ~3/4 of the trees
				newOwner[v] = int32(h % p)
			}
		}

		// Serial reference: per-flow record counts straight off the
		// element slab.
		wantFlow := make([]int64, p*p)
		var wantMoved int64
		for i := range m.Elems {
			el := &m.Elems[i]
			if el.Dead {
				continue
			}
			if src, dst := owners[el.Root], newOwner[el.Root]; src != dst {
				wantFlow[int(src)*p+int(dst)]++
				wantMoved++
			}
		}

		// The flow list holds exactly the pairs that move something, in
		// canonical order, with the oracle's counts.
		flows := countFlows(m, owners, newOwner, p)
		f := 0
		for pair, want := range wantFlow {
			if want == 0 {
				continue
			}
			if f == len(flows) || flows[f] != (remap.Flow{Src: int32(pair / p), Dst: int32(pair % p), Elems: want}) {
				t.Fatalf("flow list %v lacks %d->%d carrying %d elements", flows, pair/p, pair%p, want)
			}
			f++
		}
		if f != len(flows) {
			t.Fatalf("flow list %v is not the canonical list of nonempty pairs", flows)
		}

		// The executed remap must move every element and update ownership.
		res, err := d.ExecuteRemap(newOwner, machine.SP2())
		if err != nil {
			t.Fatal(err)
		}
		if res.Moved != wantMoved {
			t.Fatalf("executed remap moved %d, want %d", res.Moved, wantMoved)
		}
		if !reflect.DeepEqual(d.Owners(), newOwner) {
			t.Fatal("ownership not updated to newOwner")
		}
	})
}
