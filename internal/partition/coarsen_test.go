package partition

import (
	"math/rand"
	"slices"
	"testing"

	"plum/internal/dual"
	"plum/internal/geom"
)

// coarsenSorted is the sort-based contraction coarsenCounted charges for,
// kept as its oracle: every coarse edge is packed as a (min, max) pair,
// one sort-and-compact collapses the duplicates, and the rows are filled
// in pair order.
func coarsenSorted(g *dual.Graph, seed int64) (*dual.Graph, []int32, int64) {
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
		ops += 1 + int64(len(g.Adj[v]))
		if cmap[v] >= 0 {
			continue
		}
		var best int32 = -1
		for _, w := range g.Adj[v] {
			if cmap[w] >= 0 {
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

	cg := &dual.Graph{
		N:          int(nc),
		Adj:        make([][]int32, nc),
		Wcomp:      make([]int64, nc),
		Wremap:     make([]int64, nc),
		EdgeWeight: g.EdgeWeight,
		Centroid:   make([]geom.Vec3, nc),
	}
	cnt := make([]float64, nc)
	for v := 0; v < g.N; v++ {
		c := cmap[v]
		cg.Wcomp[c] += g.Wcomp[v]
		cg.Wremap[c] += g.Wremap[v]
		cg.Centroid[c] = cg.Centroid[c].Add(g.Centroid[v])
		cnt[c]++
	}
	for c := range cg.Centroid {
		if cnt[c] > 0 {
			cg.Centroid[c] = cg.Centroid[c].Scale(1 / cnt[c])
		}
	}
	var packed []uint64
	for v := 0; v < g.N; v++ {
		cv := cmap[v]
		ops += 1 + int64(len(g.Adj[v]))
		for _, w := range g.Adj[v] {
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
	for _, pq := range packed {
		a, b := int32(pq>>32), int32(uint32(pq))
		cg.Adj[a] = append(cg.Adj[a], b)
		cg.Adj[b] = append(cg.Adj[b], a)
	}
	return cg, cmap, ops
}

// shuffledGraph is gridGraph with every adjacency row permuted and iso
// isolated vertices appended: row order steers the matching's tie-breaks
// and the first-seen order of the marker dedup, and isolated vertices
// become single coarse vertices with empty rows.
func shuffledGraph(nx, ny, nz, iso int, seed int64) *dual.Graph {
	g := gridGraph(nx, ny, nz, seed)
	rng := rand.New(rand.NewSource(^seed))
	for _, row := range g.Adj {
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
	}
	for i := 0; i < iso; i++ {
		w := int64(1 + rng.Intn(1000))
		g.Adj = append(g.Adj, nil)
		g.Wcomp = append(g.Wcomp, w)
		g.Wremap = append(g.Wremap, w)
		g.Centroid = append(g.Centroid, geom.Vec3{X: -1, Y: float64(i)})
	}
	g.N += iso
	return g
}

// FuzzCoarsen holds the linear-time contraction to the sort-based oracle:
// the same fine→coarse map, weights, centroids and op count, and every
// coarse row equal entry for entry, so the levels above are identical too.
func FuzzCoarsen(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(3), uint8(0), int64(1), int64(1))
	f.Add(uint8(6), uint8(1), uint8(1), uint8(2), int64(2), int64(5))
	f.Add(uint8(5), uint8(4), uint8(2), uint8(7), int64(99), int64(3))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), int64(7), int64(0))
	f.Fuzz(func(t *testing.T, nx, ny, nz, iso uint8, gseed, mseed int64) {
		dims := func(d uint8) int { return 1 + int(d%8) }
		g := shuffledGraph(dims(nx), dims(ny), dims(nz), int(iso%8), gseed)
		for lvl := 0; g.N > 1 && lvl < 4; lvl++ {
			want, wantMap, wantOps := coarsenSorted(g, mseed+int64(lvl))
			got, gotMap, gotOps := coarsenCounted(g, mseed+int64(lvl))
			if gotOps != wantOps {
				t.Fatalf("level %d: ops %d, oracle %d", lvl, gotOps, wantOps)
			}
			if !slices.Equal(gotMap, wantMap) {
				t.Fatalf("level %d: coarse map differs", lvl)
			}
			if got.N != want.N || !slices.Equal(got.Wcomp, want.Wcomp) ||
				!slices.Equal(got.Wremap, want.Wremap) || !slices.Equal(got.Centroid, want.Centroid) {
				t.Fatalf("level %d: coarse vertices differ", lvl)
			}
			for c := range want.Adj {
				if !slices.Equal(got.Adj[c], want.Adj[c]) {
					t.Fatalf("level %d: row %d = %v, oracle %v", lvl, c, got.Adj[c], want.Adj[c])
				}
			}
			g = got
		}
	})
}
