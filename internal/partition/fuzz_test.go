package partition

import (
	"math/rand"
	"testing"

	"plum/internal/dual"
	"plum/internal/geom"
)

// gridGraph builds a connected nx×ny×nz lattice dual graph with weights
// drawn from the given seed — a cheap stand-in for a mesh dual that lets
// the fuzzer explore shapes and weight distributions meshes never produce.
func gridGraph(nx, ny, nz int, seed int64) *dual.Graph {
	n := nx * ny * nz
	g := &dual.Graph{
		N:          n,
		Wcomp:      make([]int64, n),
		Wremap:     make([]int64, n),
		EdgeWeight: 1,
		Centroid:   make([]geom.Vec3, n),
	}
	id := func(x, y, z int) int32 { return int32((z*ny+y)*nx + x) }
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int32, n)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := id(x, y, z)
				g.Centroid[v] = geom.Vec3{X: float64(x), Y: float64(y), Z: float64(z)}
				// Heavy-tailed weights: mostly 1, occasionally huge, the
				// regime where naive median splits produce empty parts.
				w := int64(1)
				switch rng.Intn(8) {
				case 0:
					w = int64(1 + rng.Intn(20))
				case 1:
					w = int64(1 + rng.Intn(500))
				}
				g.Wcomp[v] = w
				g.Wremap[v] = w
				if x > 0 {
					adj[v] = append(adj[v], id(x-1, y, z))
					adj[id(x-1, y, z)] = append(adj[id(x-1, y, z)], v)
				}
				if y > 0 {
					adj[v] = append(adj[v], id(x, y-1, z))
					adj[id(x, y-1, z)] = append(adj[id(x, y-1, z)], v)
				}
				if z > 0 {
					adj[v] = append(adj[v], id(x, y, z-1))
					adj[id(x, y, z-1)] = append(adj[id(x, y, z-1)], v)
				}
			}
		}
	}
	setRows(g, adj)
	return g
}

// setRows stores rows as g's CSR adjacency, row by row.
func setRows(g *dual.Graph, rows [][]int32) {
	g.Xadj = make([]int32, 1, len(rows)+1)
	g.Adjncy = nil
	for _, r := range rows {
		g.Adjncy = append(g.Adjncy, r...)
		g.Xadj = append(g.Xadj, int32(len(g.Adjncy)))
	}
}

// FuzzSortByKey feeds arbitrary bytes as keys to the curve-order radix
// sort: each byte picks one of eight keys that differ in a low, a middle
// and the top byte, so passes are skipped and ties are everywhere. The
// order must equal the (key, index) reference.
func FuzzSortByKey(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 1, 255, 1, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]uint64, len(data))
		for i, b := range data {
			keys[i] = uint64(b&1) | uint64(b>>1&1)<<27 | uint64(b>>2&1)<<63
		}
		checkSortByKey(t, "fuzz", keys)
	})
}

// FuzzPartitionAssignment is the repo-wide partitioner contract: every
// backend, on every connected graph with 1 ≤ k ≤ N, must return an
// Assignment where (a) every entry is in [0, k), (b) every part is
// non-empty, and (c) for the SFC backends the documented balance bound
// Wmax ≤ ΣW/k + max(Wcomp) holds.
func FuzzPartitionAssignment(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(3), uint8(4), uint8(0), int64(1))
	f.Add(uint8(6), uint8(1), uint8(1), uint8(5), uint8(3), int64(2))
	f.Add(uint8(4), uint8(4), uint8(2), uint8(8), uint8(5), int64(99))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(8), uint8(4), int64(7))
	f.Fuzz(func(t *testing.T, nx, ny, nz, kk, mi uint8, seed int64) {
		dims := func(d uint8) int { return 1 + int(d%6) }
		g := gridGraph(dims(nx), dims(ny), dims(nz), seed)
		k := 1 + int(kk)%g.N
		if k > 16 {
			k = 16
		}
		m := Methods[int(mi)%len(Methods)]

		asg := Partition(g, k, m)
		if len(asg) != g.N {
			t.Fatalf("%v: assignment length %d != %d", m, len(asg), g.N)
		}
		seen := make([]int64, k)
		counts := make([]int, k)
		for v, p := range asg {
			if p < 0 || int(p) >= k {
				t.Fatalf("%v k=%d: vertex %d assigned to invalid part %d", m, k, v, p)
			}
			seen[p] += g.Wcomp[v]
			counts[p]++
		}
		for p, c := range counts {
			if c == 0 {
				t.Fatalf("%v k=%d n=%d: part %d empty", m, k, g.N, p)
			}
		}

		if m == MethodMortonSFC || m == MethodHilbertSFC {
			var total, maxW int64
			for _, w := range g.Wcomp {
				total += w
				if w > maxW {
					maxW = w
				}
			}
			// Documented bound: the raw chunk cut satisfies
			// Wmax ≤ ΣW/k + max(Wcomp); the FM pass inside SFC may grow a
			// part up to its own 3% tolerance, so the post-refinement
			// guarantee is the larger of the two.
			avg := float64(total) / float64(k)
			bound := avg + float64(maxW)
			if fm := avg * 1.03; fm > bound {
				bound = fm
			}
			bound += 1e-6
			for p, w := range seen {
				if float64(w) > bound {
					t.Fatalf("%v k=%d: part %d weight %d exceeds documented bound %.1f", m, k, p, w, bound)
				}
			}
		}
	})
}
