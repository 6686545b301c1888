package par

import (
	"reflect"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
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
// flips: element records must be conserved per (src, dst) flow — never
// lost, never duplicated — the CSR scatter must be byte-identical with
// and without parallel chunking, and the executed remap must pass its own
// conservation check and land the expected ownership.
func FuzzExecuteRemap(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(42), uint8(3))
	f.Add(uint64(0xdeadbeef), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, refineBits uint8) {
		const p = 4
		m := meshgen.SmallBox()
		g := dual.Build(m)
		d := NewDist(m, p, partition.Partition(g, p, partition.MethodGraphGrow))
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
			dv := d.rootDual[el.Root]
			if dv < 0 {
				continue
			}
			if src, dst := owners[dv], newOwner[dv]; src != dst {
				wantFlow[int(src)*p+int(dst)]++
				wantMoved++
			}
		}

		// The scatter must conserve records and be chunking-invariant.
		serial := collectFlowIndex(m, d.rootDual, owners, newOwner, p, 1)
		chunked := collectFlowIndex(m, d.rootDual, owners, newOwner, p, 3)
		recs := packAll(d, &serial, 1)
		if !reflect.DeepEqual(serial, chunked) ||
			!reflect.DeepEqual(recs, packAll(d, &chunked, 3)) {
			t.Fatal("chunked scatter diverges from serial")
		}
		if int64(len(serial.elems)) != wantMoved {
			t.Fatalf("scatter moved %d records, want %d", len(serial.elems), wantMoved)
		}
		// The flow list holds exactly the pairs that move something, in
		// canonical order, with the oracle's counts.
		f := 0
		for pair, want := range wantFlow {
			got := int64(0)
			if f < len(serial.flows) && serial.flows[f] == (flow{int32(pair / p), int32(pair % p)}) {
				got = serial.flowStart[f+1] - serial.flowStart[f]
				f++
			}
			if got != want || serial.find(int32(pair/p), int32(pair%p)) >= 0 != (want > 0) {
				t.Fatalf("flow %d->%d carries %d records, want %d", pair/p, pair%p, got, want)
			}
		}
		if f != len(serial.flows) {
			t.Fatalf("flow list %v is not the canonical list of nonempty pairs", serial.flows)
		}
		// Every record must name a dual vertex of its own flow.
		for f, fl := range serial.flows {
			rec := recs[serial.flowStart[f]*recWords : serial.flowStart[f+1]*recWords]
			for o := 0; o < len(rec); o += recWords {
				dv := rec[o]
				if dv < 0 || int(dv) >= len(owners) {
					t.Fatalf("flow %d record names dual vertex %d out of range", f, dv)
				}
				if owners[dv] != fl.src || newOwner[dv] != fl.dst {
					t.Fatalf("record for dual vertex %d filed under flow %d->%d", dv, fl.src, fl.dst)
				}
			}
		}

		// The executed remap performs its own receive-side conservation
		// check; it must pass and update ownership.
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
