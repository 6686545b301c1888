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

// backend is one of the package's two refiners at a fixed worker knob.
type backend struct {
	name   string
	refine func(g *dual.Graph, asg []int32, k, passes int) machine.Ops
}

// backends lists band-FM (Default, at the given worker knob) and the
// classic FM sweep, whose op count multilevel charges as serial
// memory-bound work.
func backends(workers int) []backend {
	return []backend{
		{"bandfm", func(g *dual.Graph, asg []int32, k, passes int) machine.Ops {
			return Default(g.N, workers).Refine(g, asg, k, passes)
		}},
		{"fm", func(g *dual.Graph, asg []int32, k, passes int) machine.Ops {
			var ops machine.Ops
			ops.AddSerialMem(FMRefine(g, asg, k, passes))
			return ops
		}},
	}
}

// refFMRefine is the classic FM sweep as written before it shared
// band-FM's move rule: the gain/fit/balance selection inline, against the
// live weights. FMRefine must match it move for move and op for op.
func refFMRefine(g *dual.Graph, asg []int32, k, passes int) int64 {
	var ops int64
	if k <= 1 {
		return ops
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
			ops += 1 + int64(len(g.Nbrs(v)))
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
	ops += overflowPass(g, asg, k, w, cnt, maxW)
	return ops
}

// checkFMMatchesReference runs FMRefine and refFMRefine from the same
// start and fails on any difference in assignment or op count.
func checkFMMatchesReference(t *testing.T, g *dual.Graph, init []int32, k, passes int, label string) {
	t.Helper()
	got := append([]int32(nil), init...)
	want := append([]int32(nil), init...)
	gotOps := FMRefine(g, got, k, passes)
	wantOps := refFMRefine(g, want, k, passes)
	if gotOps != wantOps {
		t.Fatalf("%s: FMRefine reported %d ops, reference %d", label, gotOps, wantOps)
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d in part %d, reference says %d", label, v, got[v], want[v])
		}
	}
}

// TestFMMatchesReference pins the shared move rule: FMRefine, which
// delegates the target choice to proposeMove against live weights, makes
// exactly the moves of the inline reference sweep and reports the same
// op count.
func TestFMMatchesReference(t *testing.T) {
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

// TestBandFMWorkerParity is the determinism contract of band-FM: it
// must produce byte-identical assignments at every worker count, on a
// graph large enough to engage the parallel band machinery.
func TestBandFMWorkerParity(t *testing.T) {
	g := gridGraph(24, 24, 16, 5) // 9216 vertices > SerialCutoff
	for _, k := range []int{2, 7, 16} {
		init := blockAssignment(g.N, k)
		ref := append([]int32(nil), init...)
		refOps := Default(g.N, 1).Refine(g, ref, k, 2)
		if refOps.Crit != refOps.Total {
			t.Errorf("k=%d workers=1: Crit %d != Total %d on the serial replay",
				k, refOps.Crit, refOps.Total)
		}
		for _, w := range []int{2, 4, 8} {
			got := append([]int32(nil), init...)
			ops := Default(g.N, w).Refine(g, got, k, 2)
			for v := range got {
				if got[v] != ref[v] {
					t.Fatalf("k=%d workers=%d: vertex %d in part %d, serial replay says %d",
						k, w, v, got[v], ref[v])
				}
			}
			if ops.Total != refOps.Total {
				t.Errorf("k=%d workers=%d: total ops %d != serial total %d (work must be worker-invariant)",
					k, w, ops.Total, refOps.Total)
			}
			if ops.Crit >= ops.Total {
				t.Errorf("k=%d workers=%d: parallel run not discounted (crit %d vs total %d)",
					k, w, ops.Crit, ops.Total)
			}
		}
	}
}

// TestRefinerContract runs the shared contract over both refiners:
// validity and non-empty parts are preserved, no move pushes the heaviest
// part past the 3% balance cap (Wmax never exceeds max(Wmax_before,
// cap)), and the op accounting is sane.
func TestRefinerContract(t *testing.T) {
	fixtures := []struct {
		name string
		g    *dual.Graph
	}{
		{"small", gridGraph(6, 6, 5, 3)},    // 180 vertices: serial fallback
		{"large", gridGraph(20, 18, 14, 9)}, // 5040 vertices: parallel band path
	}
	for _, fx := range fixtures {
		var total int64
		for _, w := range fx.g.Wcomp {
			total += w
		}
		for _, r := range backends(4) {
			for _, k := range []int{2, 5, 8} {
				asg := blockAssignment(fx.g.N, k)
				before := maxLoad(fx.g, asg, k)
				ops := r.refine(fx.g, asg, k, 2)

				label := fx.name + "/" + r.name
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
				if ops.Crit > ops.Total {
					t.Errorf("%s k=%d: critical path %d exceeds total %d", label, k, ops.Crit, ops.Total)
				}
				if fx.g.N < SerialCutoff && ops.Crit != ops.Total {
					t.Errorf("%s k=%d: serial fallback must report Crit == Total (got %d != %d)",
						label, k, ops.Crit, ops.Total)
				}
			}
		}
	}
}

// TestBandFMGainPhaseCutNonIncrease pins the conflict-free-class
// guarantee: on a balanced input (the overflow pass is a no-op) every
// applied move has exact gain ≥ 0, so the cut can only shrink. The
// diagonal-checkerboard start is perfectly balanced (every dimension
// divides k) and every edge is cut, so positive-gain moves abound.
func TestBandFMGainPhaseCutNonIncrease(t *testing.T) {
	g := gridGraph(12, 12, 8, 1)
	for i := range g.Wcomp {
		g.Wcomp[i] = 1
	}
	for _, k := range []int{2, 4} {
		asg := checkerboardAssignment(g, k)
		before := edgeCut(g, asg)
		Default(g.N, 3).Refine(g, asg, k, 8)
		after := edgeCut(g, asg)
		if after > before {
			t.Errorf("k=%d: gain phase increased cut %d -> %d", k, before, after)
		}
		if after >= before {
			t.Errorf("k=%d: band FM failed to improve a checkerboard cut (%d -> %d)", k, before, after)
		}
		checkValid(t, g, asg, k, "bandfm/checkerboard")
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

func TestEffectiveWorkers(t *testing.T) {
	if w := EffectiveWorkers(SerialCutoff-1, 8); w != 1 {
		t.Errorf("below cutoff: %d workers, want 1", w)
	}
	if w := EffectiveWorkers(SerialCutoff, 8); w != 8 {
		t.Errorf("at cutoff: %d workers, want 8", w)
	}
	if w := EffectiveWorkers(1<<20, 1); w != 1 {
		t.Errorf("explicit serial knob: %d workers, want 1", w)
	}
	if w := EffectiveWorkers(1<<20, 0); w < 1 {
		t.Errorf("GOMAXPROCS resolution returned %d", w)
	}
}

// TestDefaultWorkerIndependent pins the determinism contract on the
// default backend: the same refiner — and therefore the same cut — at
// every graph size and worker knob, including the serial hosts and small
// graphs where BandFM runs its serial replay.
func TestDefaultWorkerIndependent(t *testing.T) {
	g := gridGraph(20, 20, 12, 3) // 4800 vertices: above SerialCutoff
	if g.N < SerialCutoff {
		t.Fatalf("fixture has %d vertices, need ≥ %d", g.N, SerialCutoff)
	}
	const k = 8
	var ref []int32
	for _, n := range []int{SerialCutoff - 1, g.N} {
		for _, w := range []int{1, 2, 4, 8} {
			asg := blockAssignment(g.N, k)
			Default(n, w).Refine(g, asg, k, 2)
			if ref == nil {
				ref = asg
			} else if !slices.Equal(asg, ref) {
				t.Errorf("Default(%d, %d) refined to a different assignment", n, w)
			}
		}
	}
}

// TestRefineDegenerate covers the k ≤ 1 and empty-graph guards.
func TestRefineDegenerate(t *testing.T) {
	g := gridGraph(3, 3, 3, 1)
	asg := make([]int32, g.N)
	for _, r := range backends(2) {
		if ops := r.refine(g, asg, 1, 2); ops.Total != 0 {
			t.Errorf("%s: k=1 did work: %+v", r.name, ops)
		}
		empty := &dual.Graph{}
		if ops := r.refine(empty, nil, 4, 2); ops.Total != 0 {
			t.Errorf("%s: empty graph did work: %+v", r.name, ops)
		}
	}
}
