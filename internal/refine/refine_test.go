package refine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
)

// gridGraph builds a connected nx×ny×nz lattice dual graph with
// heavy-tailed weights drawn from the given seed — the same stand-in the
// partition fuzzer uses, rebuilt here to keep the package test-independent.
func gridGraph(nx, ny, nz int, seed int64) *dual.Graph {
	n := nx * ny * nz
	g := &dual.Graph{
		N:          n,
		Xadj:       make([]int32, 1, n+1),
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
	for _, row := range adj {
		g.Adjncy = append(g.Adjncy, row...)
		g.Xadj = append(g.Xadj, int32(len(g.Adjncy)))
	}
	return g
}

// blockAssignment splits the vertex range into k contiguous index blocks
// — a valid (all parts non-empty for k ≤ n), deliberately rough starting
// partition with a real boundary band.
func blockAssignment(n, k int) []int32 {
	asg := make([]int32, n)
	for v := range asg {
		asg[v] = int32(v * k / n)
	}
	return asg
}

func checkValid(t *testing.T, g *dual.Graph, asg []int32, k int, name string) {
	t.Helper()
	cnt := make([]int, k)
	for v, p := range asg {
		if p < 0 || int(p) >= k {
			t.Fatalf("%s: vertex %d in invalid part %d", name, v, p)
		}
		cnt[p]++
	}
	for p, c := range cnt {
		if c == 0 {
			t.Fatalf("%s: part %d emptied", name, p)
		}
	}
}

func maxLoad(g *dual.Graph, asg []int32, k int) int64 {
	w := make([]int64, k)
	for v, p := range asg {
		w[p] += g.Wcomp[v]
	}
	var max int64
	for _, x := range w {
		if x > max {
			max = x
		}
	}
	return max
}

func edgeCut(g *dual.Graph, asg []int32) int64 {
	var cut int64
	for v := range int32(g.N) {
		for _, u := range g.Nbrs(v) {
			if v < u && asg[v] != asg[u] {
				cut++
			}
		}
	}
	return cut
}

// checkerboardAssignment deals the lattice's diagonals round-robin over k
// parts ((x+y+z) mod k): every edge is cut, so gain moves abound. Parts
// past the longest diagonal stay empty.
func checkerboardAssignment(g *dual.Graph, k int) []int32 {
	asg := make([]int32, g.N)
	for v, c := range g.Centroid {
		asg[v] = int32(int(c.X+c.Y+c.Z) % k)
	}
	return asg
}

// fmOps runs FMRefine and books its count as memory-bound work, the way
// multilevel charges it.
func fmOps(g *dual.Graph, asg []int32, k, passes int) machine.Ops {
	var ops machine.Ops
	ops.AddMem(FMRefine(g, asg, k, passes))
	return ops
}

// refFMRefine is the classic FM sweep as written before its move rule
// moved into proposeMove and it walked only the boundary: every vertex visited
// on every pass, the gain/fit/balance selection inline, against the live
// weights. FMRefine must match it move for move.
func refFMRefine(g *dual.Graph, asg []int32, k, passes int) {
	if k <= 1 {
		return
	}
	w := make([]int64, k)
	for v, p := range asg {
		w[p] += g.Wcomp[v]
	}
	maxW := BalanceCap(w)
	cnt := make([]int, k)
	for _, p := range asg {
		cnt[p]++
	}
	conn := make([]int32, k)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := range int32(g.N) {
			a := asg[v]
			if cnt[a] <= 1 {
				continue
			}
			boundary := false
			for _, u := range g.Nbrs(v) {
				if asg[u] != a {
					boundary = true
					break
				}
			}
			if !boundary {
				continue
			}
			for i := range conn {
				conn[i] = 0
			}
			for _, u := range g.Nbrs(v) {
				conn[asg[u]]++
			}
			bestPart := a
			bestGain := int32(0)
			for _, u := range g.Nbrs(v) {
				b := asg[u]
				if b == a || b == bestPart {
					continue
				}
				gain := conn[b] - conn[a]
				fits := w[b]+g.Wcomp[v] <= maxW
				better := gain > bestGain && fits
				balances := gain == bestGain && bestPart == a && w[b]+g.Wcomp[v] < w[a]
				if better || (balances && fits) {
					bestPart = b
					bestGain = gain
				}
			}
			if bestPart != a {
				asg[v] = bestPart
				w[a] -= g.Wcomp[v]
				w[bestPart] += g.Wcomp[v]
				cnt[a]--
				cnt[bestPart]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	overflowPass(g, asg, k, w, cnt, maxW, func(v, a, b int32) int64 {
		asg[v] = b
		w[a] -= g.Wcomp[v]
		w[b] += g.Wcomp[v]
		cnt[a]--
		cnt[b]++
		return 0
	})
}

// checkFMMatchesReference runs FMRefine and refFMRefine from the same
// start and fails on any difference in assignment.
func checkFMMatchesReference(t *testing.T, g *dual.Graph, init []int32, k, passes int, label string) {
	t.Helper()
	got := append([]int32(nil), init...)
	want := append([]int32(nil), init...)
	FMRefine(g, got, k, passes)
	refFMRefine(g, want, k, passes)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d in part %d, reference says %d", label, v, got[v], want[v])
		}
	}
}

// pathGraph is the unit-weight path 0 – 1 – … – n-1.
func pathGraph(n int) *dual.Graph {
	g := &dual.Graph{N: n, Xadj: []int32{0}, Wcomp: make([]int64, n), EdgeWeight: 1}
	for v := range int32(n) {
		g.Wcomp[v] = 1
		if v > 0 {
			g.Adjncy = append(g.Adjncy, v-1)
		}
		if int(v) < n-1 {
			g.Adjncy = append(g.Adjncy, v+1)
		}
		g.Xadj = append(g.Xadj, int32(len(g.Adjncy)))
	}
	return g
}

// TestFMMatchesReference pins the shared move rule and the boundary walk:
// FMRefine, which delegates the target choice to proposeMove against live
// weights and visits only the boundary, makes exactly the moves of the
// inline reference sweep over every vertex. Its op count is pinned by
// hand on a toy path.
func TestFMMatchesReference(t *testing.T) {
	// The path 0–1–2–3–4–5, unit weights, k = 2, parts {0..3} and {4, 5}:
	// cap ⌊3·1.03⌋ = 3, so part 0 (weight 4) is over it. Every vertex is a
	// candidate. The count:
	//   1   the all-vertex candidate word
	//   8   tallies, reset and cap: n + k = 6 + 2
	//   19  pass 1: 1 word + 1 + deg for visits of 0, 1, 2 (2 + 3 + 3),
	//       interior, and of 3 (3), which moves to part 1 at gain 0 into
	//       the lighter part (deg 2); 2 joins the boundary behind the scan;
	//       then 4 and 5 (3 + 2), interior now
	//   7   pass 2: 1 word + visits of 2 and 3 (3 each); no move fits
	//   2   overflowPass: one round's k, no part over the cap
	g := pathGraph(6)
	asg := []int32{0, 0, 0, 0, 1, 1}
	if ops := FMRefine(g, asg, 2, 2); ops != 37 {
		t.Errorf("path: FMRefine charged %d ops, hand count 37", ops)
	}
	if want := []int32{0, 0, 0, 1, 1, 1}; !slices.Equal(asg, want) {
		t.Errorf("path: refined to %v, want %v", asg, want)
	}

	fixtures := []struct {
		name string
		g    *dual.Graph
	}{
		{"small", gridGraph(6, 6, 5, 3)},
		{"large", gridGraph(20, 18, 14, 9)},
	}
	for _, fx := range fixtures {
		for _, k := range []int{2, 5, 16} {
			starts := []struct {
				name string
				asg  []int32
			}{
				{"block", blockAssignment(fx.g.N, k)},
				{"checkerboard", checkerboardAssignment(fx.g, k)},
			}
			for _, st := range starts {
				for _, passes := range []int{2, 8} {
					label := fmt.Sprintf("%s/%s k=%d passes=%d", fx.name, st.name, k, passes)
					checkFMMatchesReference(t, fx.g, st.asg, k, passes, label)
				}
			}
		}
	}
}

// TestRefinerContract runs the refiner contract over FM: validity and
// non-empty parts are preserved, no move pushes the heaviest part past
// the 3% balance cap (Wmax never exceeds max(Wmax_before, cap)), and the
// op accounting is sane.
func TestRefinerContract(t *testing.T) {
	fixtures := []struct {
		name string
		g    *dual.Graph
	}{
		{"small", gridGraph(6, 6, 5, 3)},    // 180 vertices
		{"large", gridGraph(20, 18, 14, 9)}, // 5040 vertices
	}
	for _, fx := range fixtures {
		var total int64
		for _, w := range fx.g.Wcomp {
			total += w
		}
		for _, k := range []int{2, 5, 8} {
			asg := blockAssignment(fx.g.N, k)
			before := maxLoad(fx.g, asg, k)
			ops := fmOps(fx.g, asg, k, 2)

			label := fx.name + "/fm"
			checkValid(t, fx.g, asg, k, label)
			cap := int64(float64(total) / float64(k) * 1.03)
			if cap < 1 {
				cap = 1
			}
			bound := before
			if cap > bound {
				bound = cap
			}
			if after := maxLoad(fx.g, asg, k); after > bound {
				t.Errorf("%s k=%d: Wmax %d exceeds bound max(before=%d, cap=%d)",
					label, k, after, before, cap)
			}
			if ops.Total <= 0 {
				t.Errorf("%s k=%d: no work reported", label, k)
			}
			if ops.Mem != ops.Total {
				t.Errorf("%s k=%d: refinement is memory-bound, yet %d of %d ops are not",
					label, k, ops.Total-ops.Mem, ops.Total)
			}
		}
	}
}

// TestDefaultIsInert pins the deprecated Default's contract: its Refine
// leaves the assignment byte-identical and charges nothing, on a start
// where FM would move vertices.
func TestDefaultIsInert(t *testing.T) {
	g := gridGraph(12, 12, 8, 1)
	for _, k := range []int{2, 4} {
		asg := checkerboardAssignment(g, k)
		want := slices.Clone(asg)
		if ops := Default(g.N, 3).Refine(g, asg, k, 8); ops != (machine.Ops{}) {
			t.Errorf("k=%d: Default charged %+v", k, ops)
		}
		if !slices.Equal(asg, want) {
			t.Errorf("k=%d: Default changed the assignment", k)
		}
		if FMRefine(g, asg, k, 8); slices.Equal(asg, want) {
			t.Fatalf("k=%d: FM moves nothing on the fixture", k)
		}
	}
}

// TestClassicFMStillImproves covers the relocated serial sweep (with the
// early-break boundary fix): same cut-improvement behaviour as before
// the extraction.
func TestClassicFMStillImproves(t *testing.T) {
	g := gridGraph(10, 10, 6, 2)
	asg := make([]int32, g.N)
	for v := range asg {
		asg[v] = int32(v % 2)
	}
	before := edgeCut(g, asg)
	if ops := FMRefine(g, asg, 2, 8); ops <= 0 {
		t.Error("no ops reported")
	}
	if after := edgeCut(g, asg); after >= before {
		t.Errorf("classic FM did not improve cut: %d -> %d", before, after)
	}
	checkValid(t, g, asg, 2, "fm")
}

// TestRefineDegenerate covers the k ≤ 1 and empty-graph guards.
func TestRefineDegenerate(t *testing.T) {
	g := gridGraph(3, 3, 3, 1)
	asg := make([]int32, g.N)
	if ops := FMRefine(g, asg, 1, 2); ops != 0 {
		t.Errorf("k=1 did work: %d ops", ops)
	}
	if ops := FMRefine(&dual.Graph{}, nil, 4, 2); ops != 0 {
		t.Errorf("empty graph did work: %d ops", ops)
	}
}
