package refine

import (
	"math/rand"
	"slices"
	"testing"

	"plum/internal/dual"
)

// FuzzRefinerValidity is the package-wide refiner contract under
// arbitrary connected lattice graphs, weight distributions, and starting
// partitions: FMRefine must preserve assignment validity (entries in
// range, no part emptied), never push the heaviest part past
// max(Wmax_before, the 3% cap), and match its inline reference sweep move
// for move.
func FuzzRefinerValidity(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(3), uint8(4), int64(1))
	f.Add(uint8(6), uint8(2), uint8(1), uint8(7), int64(2))
	f.Add(uint8(19), uint8(17), uint8(15), uint8(8), int64(3))
	f.Add(uint8(5), uint8(5), uint8(4), uint8(2), int64(99))
	f.Fuzz(func(t *testing.T, nx, ny, nz, kk uint8, seed int64) {
		dims := func(d uint8) int { return 2 + int(d)%19 }
		g := gridGraph(dims(nx), dims(ny), dims(nz), seed)
		k := 2 + int(kk)%15
		if k > g.N {
			k = g.N
		}

		init := blockAssignment(g.N, k)
		checkFMMatchesReference(t, g, init, k, 2, "fm/block")

		var total, before int64
		for _, w := range g.Wcomp {
			total += w
		}
		before = maxLoad(g, init, k)

		ref := append([]int32(nil), init...)
		FMRefine(g, ref, k, 2)

		checkValid(t, g, ref, k, "fm")
		cap := int64(float64(total) / float64(k) * 1.03)
		if cap < 1 {
			cap = 1
		}
		bound := before
		if cap > bound {
			bound = cap
		}
		if after := maxLoad(g, ref, k); after > bound {
			t.Fatalf("fm k=%d: Wmax %d exceeds bound max(before=%d, cap=%d)",
				k, after, before, cap)
		}
	})
}

// FuzzFMRefine holds boundary-driven FM to the reference sweep over every
// vertex: from a random assignment of a lattice with isolated vertices
// and heavy-tailed weights, FM.Refine seeded with any superset of the
// boundary must make refFMRefine's moves exactly, and the boundary it
// returns must be the one recomputed from scratch, bit for bit. The FM
// scratch is borrowed stale and oversized, as multilevel lends it.
func FuzzFMRefine(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(3), uint8(0), uint8(3), uint8(2), uint8(0), int64(1))
	f.Add(uint8(6), uint8(2), uint8(1), uint8(5), uint8(7), uint8(8), uint8(40), int64(2))
	f.Add(uint8(9), uint8(8), uint8(7), uint8(3), uint8(15), uint8(4), uint8(255), int64(3))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(7), uint8(1), uint8(9), uint8(9), int64(99))
	f.Add(uint8(4), uint8(5), uint8(6), uint8(1), uint8(6), uint8(0), uint8(30), int64(5))
	f.Fuzz(func(t *testing.T, nx, ny, nz, iso, kk, pp, extra uint8, seed int64) {
		dims := func(d uint8) int { return 1 + int(d%10) }
		g := gridGraph(dims(nx), dims(ny), dims(nz), seed)
		rng := rand.New(rand.NewSource(^seed))
		for range int(iso % 8) {
			g.Xadj = append(g.Xadj, int32(len(g.Adjncy)))
			g.Wcomp = append(g.Wcomp, int64(1+rng.Intn(1000)))
		}
		g.N = len(g.Wcomp)
		k := 1 + int(kk%16)
		passes := int(pp % 9)
		init := make([]int32, g.N)
		for v := range init {
			init[v] = int32(rng.Intn(k))
		}

		cand := boundary(g, init)
		for v := range g.N {
			if rng.Intn(256) < int(extra) {
				cand[v>>6] |= 1 << (v & 63)
			}
		}
		ext := make([]int32, g.N+5)
		for i := range ext {
			ext[i] = -7
		}
		got := slices.Clone(init)
		NewFM(k, ext).Refine(g, got, passes, cand)
		want := slices.Clone(init)
		refFMRefine(g, want, k, passes)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d passes=%d n=%d: FM.Refine moves differ from the reference sweep", k, passes, g.N)
		}
		if k > 1 && !slices.Equal(cand, boundary(g, got)) {
			t.Fatalf("k=%d passes=%d n=%d: returned boundary differs from the recomputed one", k, passes, g.N)
		}
	})
}

// boundary recomputes asg's boundary bitset from scratch: the vertices
// with a neighbour in another part.
func boundary(g *dual.Graph, asg []int32) []uint64 {
	bnd := make([]uint64, Words(g.N))
	for v := range int32(g.N) {
		for _, u := range g.Nbrs(v) {
			if asg[u] != asg[v] {
				bnd[v>>6] |= 1 << (v & 63)
				break
			}
		}
	}
	return bnd
}
