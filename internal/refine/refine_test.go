package refine

import (
	"math/rand"
	"slices"
	"testing"

	"plum/internal/dual"
	"plum/internal/geom"
)

// gridGraph builds a connected nx×ny×nz lattice dual graph with
// heavy-tailed weights drawn from the given seed — the same stand-in the
// partition fuzzer uses, rebuilt here to keep the package test-independent.
func gridGraph(nx, ny, nz int, seed int64) *dual.Graph {
	n := nx * ny * nz
	g := &dual.Graph{
		N:          n,
		Adj:        make([][]int32, n),
		Wcomp:      make([]int64, n),
		Wremap:     make([]int64, n),
		EdgeWeight: 1,
		Centroid:   make([]geom.Vec3, n),
	}
	id := func(x, y, z int) int32 { return int32((z*ny+y)*nx + x) }
	rng := rand.New(rand.NewSource(seed))
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
					g.Adj[v] = append(g.Adj[v], id(x-1, y, z))
					g.Adj[id(x-1, y, z)] = append(g.Adj[id(x-1, y, z)], v)
				}
				if y > 0 {
					g.Adj[v] = append(g.Adj[v], id(x, y-1, z))
					g.Adj[id(x, y-1, z)] = append(g.Adj[id(x, y-1, z)], v)
				}
				if z > 0 {
					g.Adj[v] = append(g.Adj[v], id(x, y, z-1))
					g.Adj[id(x, y, z-1)] = append(g.Adj[id(x, y, z-1)], v)
				}
			}
		}
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
	for v := range g.Adj {
		for _, u := range g.Adj[v] {
			if int32(v) < u && asg[v] != asg[u] {
				cut++
			}
		}
	}
	return cut
}

// TestBandFMWorkerParity is the determinism contract of the tentpole:
// BandFM (and Diffusion, which shares the frozen-phase/serial-apply
// structure) must produce byte-identical assignments at every worker
// count, on a graph large enough to engage the parallel band machinery.
func TestBandFMWorkerParity(t *testing.T) {
	g := gridGraph(24, 24, 16, 5) // 9216 vertices > SerialCutoff
	for _, k := range []int{2, 7, 16} {
		init := blockAssignment(g.N, k)
		for _, backend := range []func(w int) Refiner{
			func(w int) Refiner { return NewBandFM(w) },
			func(w int) Refiner { return NewDiffusion(w) },
		} {
			ref := append([]int32(nil), init...)
			refOps := backend(1).Refine(g, ref, k, 2)
			if refOps.Crit != refOps.Total {
				t.Errorf("%s k=%d workers=1: Crit %d != Total %d on the serial replay",
					backend(1).Name(), k, refOps.Crit, refOps.Total)
			}
			for _, w := range []int{2, 4, 8} {
				got := append([]int32(nil), init...)
				ops := backend(w).Refine(g, got, k, 2)
				for v := range got {
					if got[v] != ref[v] {
						t.Fatalf("%s k=%d workers=%d: vertex %d in part %d, serial replay says %d",
							backend(w).Name(), k, w, v, got[v], ref[v])
					}
				}
				if ops.Total != refOps.Total {
					t.Errorf("%s k=%d workers=%d: total ops %d != serial total %d (work must be worker-invariant)",
						backend(w).Name(), k, w, ops.Total, refOps.Total)
				}
				if ops.Crit >= ops.Total {
					t.Errorf("%s k=%d workers=%d: parallel run not discounted (crit %d vs total %d)",
						backend(w).Name(), k, w, ops.Crit, ops.Total)
				}
			}
		}
	}
}

// TestRefinerContract runs the shared backend contract over every
// refiner: validity and non-empty parts are preserved, no move pushes
// the heaviest part past the 3% balance cap (Wmax never exceeds
// max(Wmax_before, cap)), and the op accounting is sane.
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
		for _, name := range Names {
			for _, k := range []int{2, 5, 8} {
				r, ok := ByName(name, 4)
				if !ok {
					t.Fatalf("refiner %q missing", name)
				}
				asg := blockAssignment(fx.g.N, k)
				before := maxLoad(fx.g, asg, k)
				ops := r.Refine(fx.g, asg, k, 2)

				label := fx.name + "/" + name
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
	const nx, ny, nz = 12, 12, 8
	g := gridGraph(nx, ny, nz, 1)
	for i := range g.Wcomp {
		g.Wcomp[i] = 1
	}
	for _, k := range []int{2, 4} {
		asg := make([]int32, g.N)
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					asg[(z*ny+y)*nx+x] = int32((x + y + z) % k)
				}
			}
		}
		before := edgeCut(g, asg)
		NewBandFM(3).Refine(g, asg, k, 8)
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
			r := Default(n, w)
			if r.Name() != "bandfm" {
				t.Errorf("Default(%d, %d) = %s, want bandfm", n, w, r.Name())
			}
			asg := blockAssignment(g.N, k)
			r.Refine(g, asg, k, 2)
			if ref == nil {
				ref = asg
			} else if !slices.Equal(asg, ref) {
				t.Errorf("Default(%d, %d) refined to a different assignment", n, w)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names {
		r, ok := ByName(name, 2)
		if !ok || r.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, r, ok)
		}
	}
	if r, ok := ByName("", 2); !ok || r.Name() != "bandfm" {
		t.Errorf("default refiner = %v, %v; want bandfm", r, ok)
	}
	if _, ok := ByName("nope", 2); ok {
		t.Error("ByName accepted an unknown backend")
	}
}

// TestRefineDegenerate covers the k ≤ 1 and empty-graph guards.
func TestRefineDegenerate(t *testing.T) {
	g := gridGraph(3, 3, 3, 1)
	asg := make([]int32, g.N)
	for _, name := range Names {
		r, _ := ByName(name, 2)
		if ops := r.Refine(g, asg, 1, 2); ops.Total != 0 {
			t.Errorf("%s: k=1 did work: %+v", name, ops)
		}
		empty := &dual.Graph{}
		if ops := r.Refine(empty, nil, 4, 2); ops.Total != 0 {
			t.Errorf("%s: empty graph did work: %+v", name, ops)
		}
	}
}

// TestDiffusionRebalances exercises the scenario the diffusion knob
// exists for: a grossly imbalanced input whose load must flow across the
// part-adjacency graph toward the cap.
func TestDiffusionRebalances(t *testing.T) {
	g := gridGraph(12, 12, 8, 7)
	k := 6
	// Pathological start: part 0 owns almost everything.
	asg := make([]int32, g.N)
	for v := g.N - k + 1; v < g.N; v++ {
		asg[v] = int32(v - (g.N - k))
	}
	before := maxLoad(g, asg, k)
	NewDiffusion(2).Refine(g, asg, k, 4)
	after := maxLoad(g, asg, k)
	if after >= before {
		t.Errorf("diffusion did not reduce Wmax: %d -> %d", before, after)
	}
	checkValid(t, g, asg, k, "diffusion/imbalanced")
}
