package partition

import (
	"math"
	"math/rand"
	"slices"
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
			// Documented bound of the curve cut, which nothing refines
			// afterwards: Wmax ≤ ΣW/k + max(Wcomp).
			bound := float64(total)/float64(k) + float64(maxW) + 1e-6
			for p, w := range seen {
				if float64(w) > bound {
					t.Fatalf("%v k=%d: part %d weight %d exceeds documented bound %.1f", m, k, p, w, bound)
				}
			}
		}
	})
}

// FuzzCurveCut is the optimality oracle of the curve cut: on up to 48
// vertices with fuzzed weights (zeros, ones and a heavy tail) taken in a
// seeded curve order, and 1 ≤ k ≤ min(8, n), the cut's Wmax must equal the
// minimum bottleneck of every contiguous cut (an O(k·n²) dynamic program),
// every chunk must be contiguous in curve order and non-empty, Wmax must
// not exceed the midpoint window cut's, and Crit ≤ Total.
func FuzzCurveCut(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), int64(1))
	f.Add([]byte{0, 0, 0, 0, 0}, uint8(4), int64(2))
	f.Add([]byte{255, 1, 1, 1, 250, 1, 1, 1, 1, 245, 2, 2}, uint8(5), int64(3))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(7), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, kk uint8, seed int64) {
		n := min(len(data), 48)
		if n == 0 {
			return
		}
		k := 1 + int(kk)%min(8, n)
		g := &dual.Graph{N: n, Wcomp: make([]int64, n)}
		for v, b := range data[:n] {
			g.Wcomp[v] = int64(b % 16)
			if b >= 240 {
				g.Wcomp[v] = int64(b) * 37
			}
		}
		order := make([]int32, n)
		for i, v := range rand.New(rand.NewSource(seed)).Perm(n) {
			order[i] = int32(v)
		}
		s := &SFCPartitioner{Workers: 1, order: order, prefix: make([]int64, n+1)}
		asg, ops := s.cut(g, k)

		prefix := make([]int64, n+1)
		for i, v := range order {
			prefix[i+1] = prefix[i] + g.Wcomp[v]
		}
		w := make([]int64, k)
		for i, v := range order {
			p := int(asg[v])
			if lo := int(asg[order[max(i-1, 0)]]); p < 0 || p >= k || p < lo || p > lo+1 || (i == 0 && p != 0) {
				t.Fatalf("n=%d k=%d: position %d in part %d after part %d: chunks not contiguous", n, k, i, p, lo)
			}
			w[p] += g.Wcomp[v]
		}
		if last := asg[order[n-1]]; int(last) != k-1 {
			t.Fatalf("n=%d k=%d: curve ends in part %d, %d parts empty", n, k, last, k-1-int(last))
		}
		got := slices.Max(w)
		if want := minBottleneck(prefix, k); got != want {
			t.Fatalf("n=%d k=%d weights %v: Wmax %d, optimum %d", n, k, g.Wcomp, got, want)
		}
		if prefix[n] > 0 {
			mid := make([]int, k+1)
			mid[k] = n
			midpointCut(prefix, mid)
			if mw := wmax(prefix, mid); got > mw {
				t.Fatalf("n=%d k=%d: Wmax %d above the midpoint cut's %d", n, k, got, mw)
			}
		}
		if ops.Crit > ops.Total {
			t.Fatalf("n=%d k=%d: critical path %d exceeds total %d", n, k, ops.Crit, ops.Total)
		}
	})
}

// minBottleneck is the reference optimum: the least Wmax over every cut of
// the n positions into k non-empty contiguous chunks, by dynamic
// programming over (chunks, prefix length).
func minBottleneck(prefix []int64, k int) int64 {
	n := len(prefix) - 1
	best := slices.Clone(prefix) // one chunk: the whole prefix
	for j := 2; j <= k; j++ {
		next := make([]int64, n+1)
		for i := range next {
			next[i] = math.MaxInt64
		}
		for i := j; i <= n; i++ {
			for m := j - 1; m < i; m++ {
				next[i] = min(next[i], max(best[m], prefix[i]-prefix[m]))
			}
		}
		best = next
	}
	return best[n]
}
