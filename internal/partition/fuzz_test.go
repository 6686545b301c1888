package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
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
// every chunk must be contiguous in curve order and non-empty, and Wmax
// must not exceed the midpoint window cut's. The bracketed probes must
// place the boundaries of a plain unbounded probe at the same bottleneck,
// in no more search steps than the unbounded bisection.
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
		s := &SFCPartitioner{order: order, prefix: make([]int64, n+1)}
		asg, _ := s.cut(g, k, nil)

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
		if prefix[n] > 0 {
			want, wantSteps := refCut(prefix, k)
			bounds, steps := s.cutSerial(g, k)
			if !slices.Equal(bounds, want) {
				t.Fatalf("n=%d k=%d weights %v: bounded cut %v, unbounded probe %v", n, k, g.Wcomp, bounds, want)
			}
			if steps > wantSteps {
				t.Fatalf("n=%d k=%d: %d search steps, unbounded bisection %d", n, k, steps, wantSteps)
			}
		}
	})
}

// refProbe is the greedy probe without brackets: every boundary's binary
// search spans [start, n]. It is the reference the bracketed probe must
// reproduce.
func refProbe(prefix []int64, bounds []int, b int64) (bool, int64) {
	n := len(prefix) - 1
	var steps int64
	s := 0
	for p := 1; p < len(bounds); p++ {
		lim := prefix[s] + b
		lo, hi := s, n // the answer lies in [lo, hi]: prefix[lo] ≤ lim
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if prefix[mid] <= lim {
				lo = mid
			} else {
				hi = mid - 1
			}
			steps++
		}
		bounds[p], s = lo, lo
	}
	return s == n, steps
}

// refCut is the bisection with unbounded probes, on prefix sums with a
// positive total: the repaired boundaries of the probe at the least
// fitting bottleneck, and the search steps of every probe, the final one
// included.
func refCut(prefix []int64, k int) ([]int, int64) {
	n := len(prefix) - 1
	var maxW int64
	for i := range n {
		maxW = max(maxW, prefix[i+1]-prefix[i])
	}
	bounds := make([]int, k+1)
	bounds[k] = n
	midpointCut(prefix, bounds)
	lo, hi := max((prefix[n]+int64(k)-1)/int64(k), maxW), wmax(prefix, bounds)
	var steps int64
	for lo < hi {
		b := lo + (hi-lo)/2
		ok, c := refProbe(prefix, bounds, b)
		steps += c
		if ok {
			hi = b
		} else {
			lo = b + 1
		}
	}
	_, c := refProbe(prefix, bounds, lo)
	repairBounds(bounds, k, n)
	return bounds, steps + c
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

// FuzzDiffuse holds rebalancing from the owners to its contract. The
// bytes give a lattice with heavy-tailed weights (gridGraph) and up to
// three isolated vertices, so the part graph can fall apart, k ≤ 16 and
// an owner set of contiguous vertex blocks, each block's part a byte, with
// every part given a vertex. The result must put every vertex in [0, k),
// be identical on a rerun on the same scratch, its ops and charged seconds
// bit for bit, return an owner set whose parts all fit the FM cap
// unchanged, and end no more imbalanced than max(the owners', diffuseTol,
// 1 + k·max(w)/ΣW). The per-rank ops, the replicated ones counted once,
// must sum to the reported ops, and the charge must be at least the most
// populous part's owner scan plus FM's serial price. An owner naming a
// dead rank (−1) is refused.
func FuzzDiffuse(f *testing.F) {
	f.Add([]byte{3, 3, 3, 1, 4, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{7, 5, 2, 9, 8, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{6, 6, 4, 42, 15, 5, 4, 3, 2, 1, 0, 7, 9, 11, 13, 15})
	f.Add([]byte{1, 1, 9, 7, 2, 1, 0})
	f.Add([]byte{0x35, 4, 2, 200, 5, 0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		g := gridGraph(1+int(data[0]%8), 1+int(data[1]%8), 1+int(data[2]%6), int64(data[3]))
		for i := range int(data[0]>>4) % 4 {
			g.Xadj = append(g.Xadj, int32(len(g.Adjncy)))
			g.Wcomp = append(g.Wcomp, int64(1+97*i*int(data[3])%500))
		}
		g.N = len(g.Wcomp)
		k := min(1+int(data[4]%16), g.N)
		blocks := data[5:]
		owners := make([]int32, g.N)
		for v := range owners {
			if len(blocks) > 0 {
				owners[v] = int32(int(blocks[v*len(blocks)/g.N]) % k)
			}
		}
		for p := range k {
			owners[p*g.N/k] = int32(p)
		}

		mdl := machine.SP2()
		var d diffuser
		asg, ops, secs, ok := d.rebalance(g, k, owners, mdl)
		if !ok || len(asg) != g.N {
			t.Fatalf("k=%d n=%d: refused a valid owner set (ok=%v, %d entries)", k, g.N, ok, len(asg))
		}
		asg = slices.Clone(asg) // the rerun below rewrites d's assignment
		for v, p := range asg {
			if p < 0 || int(p) >= k {
				t.Fatalf("k=%d: vertex %d in part %d", k, v, p)
			}
		}
		sum := d.once
		for _, n := range d.own[:k] {
			sum += n
		}
		if sum != ops.Total {
			t.Fatalf("k=%d: per-rank ops sum to %d, the call reports %d", k, sum, ops.Total)
		}
		again, ops2, secs2, _ := d.rebalance(g, k, owners, mdl)
		if !slices.Equal(asg, again) || ops != ops2 || math.Float64bits(secs) != math.Float64bits(secs2) {
			t.Fatalf("k=%d: a rerun differs (ops %+v vs %+v, %.17g vs %.17g s)", k, ops, ops2, secs, secs2)
		}
		pop := make([]int64, k)
		for _, p := range owners {
			pop[p]++
		}
		if floor := float64(slices.Max(pop)+1)*mdl.CompOp + float64(ops.Mem)*mdl.MemOp; secs < floor {
			t.Fatalf("k=%d: charged %.17g s, below the largest owner scan plus FM, %.17g s", k, secs, floor)
		}

		in := Weights(g, owners, k)
		if slices.Max(in) <= balanceCap(in) && !slices.Equal(asg, Assignment(owners)) {
			t.Fatalf("k=%d: owners within the cap came back changed", k)
		}
		var total, heaviest int64
		for _, w := range g.Wcomp {
			total += w
			heaviest = max(heaviest, w)
		}
		bound := max(Imbalance(g, owners, k), diffuseTol, 1+float64(k)*float64(heaviest)/float64(total))
		if got := Imbalance(g, asg, k); got > bound+1e-9 {
			t.Fatalf("k=%d n=%d: imbalance %.6f above max(owners', %.2f, granularity) = %.6f",
				k, g.N, got, diffuseTol, bound)
		}

		owners[len(owners)-1] = -1
		if _, _, _, ok := d.rebalance(g, k, owners, mdl); ok {
			t.Fatalf("k=%d: accepted an owner naming a dead rank", k)
		}
	})
}
