package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/meshgen"
)

// coarsenSorted is the sort-based contraction coarsener.coarsen charges
// for, kept as its oracle: the matching visits a fresh rand.Perm and pairs
// each vertex with its heaviest unmatched neighbour that fits the weight
// cap wcap, every coarse edge is packed as a (min, max) pair, one
// sort-and-compact collapses the duplicates, and the rows are filled in
// pair order.
func coarsenSorted(g *dual.Graph, seed, wcap int64) (*dual.Graph, []int32, int64) {
	var ops int64
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(g.N)
	cmap := make([]int32, g.N)
	for i := range cmap {
		cmap[i] = -1
	}
	var nc int32
	for _, vi := range order {
		v := int32(vi)
		ops += 1 + int64(len(g.Nbrs(v)))
		if cmap[v] >= 0 {
			continue
		}
		var best int32 = -1
		for _, w := range g.Nbrs(v) {
			if cmap[w] >= 0 || g.Wcomp[v]+g.Wcomp[w] > wcap {
				continue
			}
			if best < 0 || g.Wcomp[w] > g.Wcomp[best] {
				best = w
			}
		}
		cmap[v] = nc
		if best >= 0 {
			cmap[best] = nc
		}
		nc++
	}

	cg := &dual.Graph{N: int(nc), Wcomp: make([]int64, nc), EdgeWeight: g.EdgeWeight}
	for v := 0; v < g.N; v++ {
		cg.Wcomp[cmap[v]] += g.Wcomp[v]
	}
	var packed []uint64
	for v := range int32(g.N) {
		cv := cmap[v]
		ops += 1 + int64(len(g.Nbrs(v)))
		for _, w := range g.Nbrs(v) {
			cw := cmap[w]
			if cv == cw {
				continue
			}
			a, b := cv, cw
			if a > b {
				a, b = b, a
			}
			packed = append(packed, uint64(uint32(a))<<32|uint64(uint32(b)))
		}
	}
	slices.Sort(packed)
	packed = slices.Compact(packed)
	ops += int64(len(packed))*int64(log2ceil(len(packed)+1)) + int64(len(packed))
	rows := make([][]int32, nc)
	for _, pq := range packed {
		a, b := int32(pq>>32), int32(uint32(pq))
		rows[a] = append(rows[a], b)
		rows[b] = append(rows[b], a)
	}
	setRows(cg, rows)
	return cg, cmap, ops
}

// shuffledGraph is gridGraph with every adjacency row permuted and iso
// isolated vertices appended: row order steers the matching's tie-breaks
// and the first-seen order of the marker dedup, and isolated vertices
// become single coarse vertices with empty rows.
func shuffledGraph(nx, ny, nz, iso int, seed int64) *dual.Graph {
	g := gridGraph(nx, ny, nz, seed)
	rng := rand.New(rand.NewSource(^seed))
	for v := range int32(g.N) {
		row := g.Nbrs(v)
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
	}
	for i := 0; i < iso; i++ {
		w := int64(1 + rng.Intn(1000))
		g.Xadj = append(g.Xadj, int32(len(g.Adjncy)))
		g.Wcomp = append(g.Wcomp, w)
	}
	g.N += iso
	return g
}

// FuzzCoarsen holds the linear-time contraction to the sort-based oracle:
// the same fine→coarse map, Wcomp and op count, and every coarse row equal
// entry for entry, so the levels above are identical too. One coarsener
// serves every level, as in multilevelCounted, and every level must pass
// dual.Graph.Check. Wremap and Centroid are compared on neither side:
// coarse levels do not carry them, because nothing reads them there (the
// spectral solve and FM read only the adjacency and Wcomp).
//
// The weight cap is fuzzed too. Every coarse vertex with two members
// weighs at most the cap, and a cap that cannot bind (at least twice the
// heaviest vertex) matches exactly as the unbounded cap math.MaxInt64,
// which is plain heavy-vertex matching: the cap moves bytes only where it
// binds.
func FuzzCoarsen(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(3), uint8(0), int64(1), int64(1), int64(math.MaxInt64))
	f.Add(uint8(6), uint8(1), uint8(1), uint8(2), int64(2), int64(5), int64(math.MaxInt64))
	f.Add(uint8(5), uint8(4), uint8(2), uint8(7), int64(99), int64(3), int64(300))
	f.Add(uint8(7), uint8(7), uint8(7), uint8(3), int64(4), int64(2), int64(40))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), int64(7), int64(0), int64(1))
	f.Fuzz(func(t *testing.T, nx, ny, nz, iso uint8, gseed, mseed, wcap int64) {
		dims := func(d uint8) int { return 1 + int(d%8) }
		g := shuffledGraph(dims(nx), dims(ny), dims(nz), int(iso%8), gseed)
		if err := g.Check(); err != nil {
			t.Fatalf("fine graph: %v", err)
		}
		c := newCoarsener(g)
		for lvl := 0; g.N > 1 && lvl < 4; lvl++ {
			seed := mseed + int64(lvl)
			want, wantMap, wantOps := coarsenSorted(g, seed, wcap)
			got, gotMap, gotOps := c.coarsen(g, seed, wcap)
			if err := got.Check(); err != nil {
				t.Fatalf("level %d: %v", lvl, err)
			}
			if gotOps != wantOps {
				t.Fatalf("level %d: ops %d, oracle %d", lvl, gotOps, wantOps)
			}
			if !slices.Equal(gotMap, wantMap) {
				t.Fatalf("level %d: coarse map differs", lvl)
			}
			if got.N != want.N || !slices.Equal(got.Wcomp, want.Wcomp) {
				t.Fatalf("level %d: coarse vertices differ", lvl)
			}
			for v := range int32(want.N) {
				if !slices.Equal(got.Nbrs(v), want.Nbrs(v)) {
					t.Fatalf("level %d: row %d = %v, oracle %v", lvl, v, got.Nbrs(v), want.Nbrs(v))
				}
			}
			members := make([]int, got.N)
			for _, cv := range gotMap {
				members[cv]++
			}
			for cv, n := range members {
				if n > 1 && got.Wcomp[cv] > wcap {
					t.Fatalf("level %d: coarse vertex %d merges %d members into weight %d > cap %d",
						lvl, cv, n, got.Wcomp[cv], wcap)
				}
			}
			if wcap >= 2*slices.Max(g.Wcomp) {
				_, freeMap, _ := c.coarsen(g, seed, math.MaxInt64)
				if !slices.Equal(gotMap, freeMap) {
					t.Fatalf("level %d: cap %d cannot bind, yet the matching differs from the unbounded one", lvl, wcap)
				}
			}
			g = got
		}
	})
}

// TestMatchOrderIsRandPerm pins the matching order: drawPerm, in place on
// a reused buffer and a reseeded source, equals a fresh
// rand.New(rand.NewSource(seed)).Perm(n). That order is what keeps every
// multilevel partition byte-identical.
func TestMatchOrderIsRandPerm(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	buf := make([]int32, 61000)
	for i := range buf {
		buf[i] = -7 // stale contents must not leak into the draw
	}
	for _, n := range []int{0, 1, 2, 257, 61000} {
		for _, seed := range []int64{0, 1, 2, 3, 42, -9, 1 << 40} {
			order := buf[:n]
			drawPerm(r, seed, order) // consecutive reseeds of one source
			want := rand.New(rand.NewSource(seed)).Perm(n)
			for i, v := range want {
				if order[i] != int32(v) {
					t.Fatalf("n=%d seed=%d: order[%d] = %d, rand.Perm %d", n, seed, i, order[i], v)
				}
			}
		}
	}
}

// TestMultilevelAllocsBounded pins the allocation budget of one multilevel
// partition: a constant per coarsening level (the coarse graph and its
// map, and FM's part tallies) plus a fixed amount per call and one result
// vector per Fiedler solve. Fresh scratch per level, a rand.Perm and a
// random source per level, or a Laplacian built row by row per solve
// would each break it.
func TestMultilevelAllocsBounded(t *testing.T) {
	g := dual.Build(meshgen.Box(16, 8, 8, geom.Vec3{X: 2, Y: 1, Z: 1}))
	const k = 8
	levels, _ := coarsenChain(g, k, 1)
	if len(levels) < 4 {
		t.Fatalf("only %d levels; the bound below needs a deeper chain", len(levels))
	}
	allocs := testing.AllocsPerRun(3, func() {
		if asg, _ := PartitionCounted(g, k, MethodMultilevel, Options{}); len(asg) != g.N {
			t.Fatal("bad assignment")
		}
	})
	t.Logf("%v allocations over %d levels", allocs, len(levels))
	const perLevel, perSolve, fixed = 10, 1, 80
	if bound := float64(perLevel*len(levels) + perSolve*(k-1) + fixed); allocs > bound {
		t.Errorf("multilevel allocates %v times over %d levels, want ≤ %v", allocs, len(levels), bound)
	}
}

// BenchmarkFiedler measures the spectral partition of the rotor's
// coarsest multilevel graph at k = 64, as multilevelCounted runs it: 63
// Fiedler solves on one Lanczos workspace plus the recursive bisection's
// sort-and-split bookkeeping.
func BenchmarkFiedler(b *testing.B) {
	const k = 64
	levels, _ := coarsenChain(dual.Build(meshgen.PaperMesh()), k, 1)
	g := levels[len(levels)-1].g
	b.ReportAllocs()
	for b.Loop() {
		if asg, _ := spectralCounted(g, k); len(asg) != g.N {
			b.Fatal("bad assignment")
		}
	}
}
