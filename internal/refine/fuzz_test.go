package refine

import "testing"

// FuzzRefinerValidity is the package-wide refiner contract under
// arbitrary connected lattice graphs, weight distributions, and starting
// partitions: both refiners must preserve assignment validity (entries
// in range, no part emptied), never push the heaviest part past
// max(Wmax_before, the 3% cap), report sane ops, and — the determinism
// contract — produce byte-identical output at any worker count. FMRefine
// must also match its inline reference sweep move for move.
func FuzzRefinerValidity(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(3), uint8(4), uint8(0), int64(1))
	f.Add(uint8(6), uint8(2), uint8(1), uint8(7), uint8(1), int64(2))
	f.Add(uint8(19), uint8(17), uint8(15), uint8(8), uint8(0), int64(3)) // > SerialCutoff
	f.Add(uint8(5), uint8(5), uint8(4), uint8(2), uint8(2), int64(99))
	f.Fuzz(func(t *testing.T, nx, ny, nz, kk, ri uint8, seed int64) {
		dims := func(d uint8) int { return 2 + int(d)%19 }
		g := gridGraph(dims(nx), dims(ny), dims(nz), seed)
		k := 2 + int(kk)%15
		if k > g.N {
			k = g.N
		}
		serial := backends(1)
		ix := int(ri) % len(serial)
		name := serial[ix].name

		init := blockAssignment(g.N, k)
		checkFMMatchesReference(t, g, init, k, 2, "fm/block")

		var total, before int64
		for _, w := range g.Wcomp {
			total += w
		}
		before = maxLoad(g, init, k)

		ref := append([]int32(nil), init...)
		refOps := serial[ix].refine(g, ref, k, 2)
		if refOps.Crit != refOps.Total {
			t.Fatalf("%s workers=1: Crit %d != Total %d", name, refOps.Crit, refOps.Total)
		}

		checkValid(t, g, ref, k, name)
		cap := int64(float64(total) / float64(k) * 1.03)
		if cap < 1 {
			cap = 1
		}
		bound := before
		if cap > bound {
			bound = cap
		}
		if after := maxLoad(g, ref, k); after > bound {
			t.Fatalf("%s k=%d: Wmax %d exceeds bound max(before=%d, cap=%d)",
				name, k, after, before, cap)
		}

		got := append([]int32(nil), init...)
		ops := backends(4)[ix].refine(g, got, k, 2)
		if ops.Crit > ops.Total {
			t.Fatalf("%s workers=4: critical path %d exceeds total %d", name, ops.Crit, ops.Total)
		}
		for v := range got {
			if got[v] != ref[v] {
				t.Fatalf("%s k=%d n=%d: workers=4 diverges from serial replay at vertex %d",
					name, k, g.N, v)
			}
		}
	})
}
