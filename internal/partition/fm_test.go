package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"plum/internal/dual"
	"plum/internal/machine"
)

// fmRefine is FM on fresh scratch with every vertex a candidate: the
// one-call refiner the FM tests drive. It returns fm.refine's charge plus
// one op per word of the all-vertex candidate set it fills; nothing for
// k ≤ 1 or an empty graph.
func fmRefine(g *dual.Graph, asg []int32, k, passes int) int64 {
	if k <= 1 || g.N == 0 {
		return 0
	}
	bnd := make([]uint64, words(g.N))
	ops := allVertices(bnd, g.N)
	return ops + newFM(k, make([]int32, g.N)).refine(g, asg, passes, bnd)
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

// fmOps runs fmRefine and books its count as memory-bound work, the way
// multilevel charges it.
func fmOps(g *dual.Graph, asg []int32, k, passes int) machine.Ops {
	var ops machine.Ops
	ops.AddMem(fmRefine(g, asg, k, passes))
	return ops
}

// refFMRefine is the classic FM sweep as written before its move rule
// moved into proposeMove and it walked only the boundary: every vertex
// visited on every pass, the gain/fit/balance selection and the overflow
// pass inline, against the live weights. fmRefine must match it move for
// move.
func refFMRefine(g *dual.Graph, asg []int32, k, passes int) {
	if k <= 1 {
		return
	}
	w := make([]int64, k)
	for v, p := range asg {
		w[p] += g.Wcomp[v]
	}
	maxW := balanceCap(w)
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
	// The overflow pass: force vertices out of the heaviest part over
	// the cap into their lightest neighbouring part while it fits.
	for iter := 0; iter < 2*k; iter++ {
		over := -1
		for p := range k {
			if w[p] > maxW && (over < 0 || w[p] > w[over]) {
				over = p
			}
		}
		if over < 0 {
			return
		}
		moved := false
		for v := range int32(g.N) {
			if w[over] <= maxW {
				break
			}
			if asg[v] != int32(over) || cnt[over] <= 1 {
				continue
			}
			best := int32(-1)
			for _, u := range g.Nbrs(v) {
				if b := asg[u]; b != int32(over) && (best < 0 || w[b] < w[best]) {
					best = b
				}
			}
			if best >= 0 && w[best]+g.Wcomp[v] <= maxW {
				asg[v] = best
				w[over] -= g.Wcomp[v]
				w[best] += g.Wcomp[v]
				cnt[over]--
				cnt[best]++
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

// checkFMMatchesReference runs fmRefine and refFMRefine from the same
// start and fails on any difference in assignment.
func checkFMMatchesReference(t *testing.T, g *dual.Graph, init []int32, k, passes int, label string) {
	t.Helper()
	got := append([]int32(nil), init...)
	want := append([]int32(nil), init...)
	fmRefine(g, got, k, passes)
	refFMRefine(g, want, k, passes)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d in part %d, reference says %d", label, v, got[v], want[v])
		}
	}
}

// TestFMMatchesReference pins the shared move rule and the boundary walk:
// fmRefine, which delegates the target choice to proposeMove against live
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
	g := graphOf(pathRows(6))
	asg := []int32{0, 0, 0, 0, 1, 1}
	if ops := fmRefine(g, asg, 2, 2); ops != 37 {
		t.Errorf("path: fmRefine charged %d ops, hand count 37", ops)
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

// TestClassicFMStillImproves holds the serial sweep to improving the cut
// of an odd/even striping without emptying a part.
func TestClassicFMStillImproves(t *testing.T) {
	g := gridGraph(10, 10, 6, 2)
	asg := make([]int32, g.N)
	for v := range asg {
		asg[v] = int32(v % 2)
	}
	before := EdgeCut(g, asg)
	if ops := fmRefine(g, asg, 2, 8); ops <= 0 {
		t.Error("no ops reported")
	}
	if after := EdgeCut(g, asg); after >= before {
		t.Errorf("classic FM did not improve cut: %d -> %d", before, after)
	}
	checkValid(t, g, asg, 2, "fm")
}

// TestRefineDegenerate covers the k ≤ 1 and empty-graph guards.
func TestRefineDegenerate(t *testing.T) {
	g := gridGraph(3, 3, 3, 1)
	asg := make([]int32, g.N)
	if ops := fmRefine(g, asg, 1, 2); ops != 0 {
		t.Errorf("k=1 did work: %d ops", ops)
	}
	if ops := fmRefine(&dual.Graph{}, nil, 4, 2); ops != 0 {
		t.Errorf("empty graph did work: %d ops", ops)
	}
}

// FuzzRefinerValidity is FM's refiner contract under
// arbitrary connected lattice graphs, weight distributions, and starting
// partitions: fmRefine must preserve assignment validity (entries in
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
		fmRefine(g, ref, k, 2)

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
// and heavy-tailed weights, fm.refine seeded with any superset of the
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
		newFM(k, ext).refine(g, got, passes, cand)
		want := slices.Clone(init)
		refFMRefine(g, want, k, passes)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d passes=%d n=%d: fm.refine moves differ from the reference sweep", k, passes, g.N)
		}
		if k > 1 && !slices.Equal(cand, boundary(g, got)) {
			t.Fatalf("k=%d passes=%d n=%d: returned boundary differs from the recomputed one", k, passes, g.N)
		}
	})
}

// boundary recomputes asg's boundary bitset from scratch: the vertices
// with a neighbour in another part.
func boundary(g *dual.Graph, asg []int32) []uint64 {
	bnd := make([]uint64, words(g.N))
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
