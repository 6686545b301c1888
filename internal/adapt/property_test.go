package adapt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
)

// TestPropertyRandomMarkingInvariants drives the adaptor with arbitrary
// random mark sets and verifies the structural invariants hold after every
// refinement: valid mesh, conserved volume, no active element on a
// bisected edge.
func TestPropertyRandomMarkingInvariants(t *testing.T) {
	f := func(seed int64, fracRaw uint8) bool {
		frac := 0.02 + float64(fracRaw%50)/100.0 // 2%..51%
		m := meshgen.Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
		a := New(m)
		a.MarkRandom(frac, MarkRefine, seed)
		a.Refine()
		if err := m.Check(); err != nil {
			t.Logf("seed=%d frac=%.2f: %v", seed, frac, err)
			return false
		}
		if v := m.TotalVolume(); math.Abs(v-1) > 1e-9 {
			t.Logf("seed=%d frac=%.2f: volume %g", seed, frac, v)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRefineCoarsenRoundTrip checks that a single refinement
// followed by coarsening of everything restores the exact initial counts,
// for arbitrary random mark sets.
func TestPropertyRefineCoarsenRoundTrip(t *testing.T) {
	f := func(seed int64, fracRaw uint8) bool {
		frac := 0.02 + float64(fracRaw%40)/100.0
		m := meshgen.Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
		s0 := m.Stats()
		a := New(m)
		a.MarkRandom(frac, MarkRefine, seed)
		a.Refine()
		a.MarkRegion(geom.All{}, MarkCoarsen)
		a.Coarsen()
		s1 := m.Stats()
		if s1.Verts != s0.Verts || s1.ActiveEdges != s0.ActiveEdges ||
			s1.ActiveElems != s0.ActiveElems || s1.ActiveFaces != s0.ActiveFaces {
			t.Logf("seed=%d frac=%.2f: %+v -> %+v", seed, frac, s0, s1)
			return false
		}
		return m.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMultiCycleStability stresses repeated refine/coarsen cycles
// with drifting random regions; the mesh must stay valid and never shrink
// below the initial size.
func TestPropertyMultiCycleStability(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := meshgen.Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
	initial := m.NumActiveElems()
	a := New(m)
	for cycle := 0; cycle < 8; cycle++ {
		c := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		a.MarkRegion(geom.Sphere{Center: c, Radius: 0.3}, MarkRefine)
		a.Refine()
		if err := m.Check(); err != nil {
			t.Fatalf("cycle %d refine: %v", cycle, err)
		}
		c2 := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		a.MarkRegion(geom.Sphere{Center: c2, Radius: 0.4}, MarkCoarsen)
		a.Coarsen()
		if err := m.Check(); err != nil {
			t.Fatalf("cycle %d coarsen: %v", cycle, err)
		}
		if got := m.NumActiveElems(); got < initial {
			t.Fatalf("cycle %d: %d elems below initial %d", cycle, got, initial)
		}
		if v := m.TotalVolume(); math.Abs(v-1) > 1e-9 {
			t.Fatalf("cycle %d: volume %g", cycle, v)
		}
	}
	// Compaction after heavy churn must preserve everything.
	before := m.Stats()
	a.Compact()
	after := m.Stats()
	if before != after {
		t.Fatalf("compaction changed stats: %+v -> %+v", before, after)
	}
	if err := m.Check(); err != nil {
		t.Fatalf("after compact: %v", err)
	}
}

// TestPropertyLeafVolumesSumToRoots verifies, per refinement tree, that
// the leaves exactly tile the root element (the basis of the Wcomp/Wremap
// weight semantics).
func TestPropertyLeafVolumesSumToRoots(t *testing.T) {
	m := meshgen.SmallBox()
	a := New(m)
	a.MarkRandom(0.15, MarkRefine, 5)
	a.Refine()
	a.MarkRandom(0.1, MarkRefine, 9)
	a.Refine()

	rootVol := map[mesh.ElemID]float64{}
	leafVol := map[mesh.ElemID]float64{}
	for i := range m.Elems {
		t := &m.Elems[i]
		if t.Dead {
			continue
		}
		if t.Level == 0 {
			rootVol[t.Root] += 0 // ensure key
		}
	}
	for i := range m.Elems {
		el := &m.Elems[i]
		if el.Dead {
			continue
		}
		if el.Level == 0 {
			rootVol[el.Root] = m.ElemVolume(mesh.ElemID(i))
		}
		if el.Active() {
			leafVol[el.Root] += m.ElemVolume(mesh.ElemID(i))
		}
	}
	for root, rv := range rootVol {
		if lv := leafVol[root]; math.Abs(lv-rv) > 1e-12*(1+rv) {
			t.Fatalf("root %d: leaves sum to %g, root volume %g", root, lv, rv)
		}
	}
}

// TestMarksSurviveCompaction checks mark remapping through Compact.
func TestMarksSurviveCompaction(t *testing.T) {
	m := meshgen.SmallBox()
	a := New(m)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Radius: 0.3}, MarkRefine)
	a.Refine()
	a.MarkRegion(geom.All{}, MarkCoarsen)
	a.Coarsen()
	// Set a fresh mark, compact, and confirm it moved with the edge.
	e := mesh.InvalidEdge
	for ei, ed := range m.Edges() {
		if !ed.Dead && !ed.Bisected() {
			e = ei
			break
		}
	}
	if e == mesh.InvalidEdge {
		t.Fatal("no active edge")
	}
	v0, v1 := m.Edge(e).V[0], m.Edge(e).V[1]
	a.SetMark(e, MarkRefine)
	cm := a.Compact()
	ne := m.FindEdge(cm.Vert[v0], cm.Vert[v1])
	if a.MarkOf(ne) != MarkRefine {
		t.Error("mark lost through compaction")
	}
}
