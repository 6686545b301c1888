package adapt

import (
	"math"
	"testing"

	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
)

func singleTet() *mesh.Mesh {
	m := mesh.New(1)
	v0 := m.AddVertex(geom.Vec3{})
	v1 := m.AddVertex(geom.Vec3{X: 1})
	v2 := m.AddVertex(geom.Vec3{Y: 1})
	v3 := m.AddVertex(geom.Vec3{Z: 1})
	m.AddElement(v0, v1, v2, v3, mesh.InvalidElem, mesh.InvalidElem, 0)
	return m
}

func checkMesh(t *testing.T, m *mesh.Mesh, ctx string) {
	t.Helper()
	if err := m.Check(); err != nil {
		t.Fatalf("%s: mesh invariant violated: %v", ctx, err)
	}
}

func TestRefine12SingleTet(t *testing.T) {
	m := singleTet()
	a := New(m)
	a.SetMark(m.FindEdge(0, 1), MarkRefine)
	st := a.Refine()
	if st.EdgesBisected != 1 {
		t.Errorf("bisected = %d, want 1", st.EdgesBisected)
	}
	if st.Subdivided[KindHalf] != 1 || st.TotalSubdivided() != 1 {
		t.Errorf("subdivided = %v", st.Subdivided)
	}
	if got := m.NumActiveElems(); got != 2 {
		t.Errorf("active elems = %d, want 2", got)
	}
	if v := m.TotalVolume(); math.Abs(v-1.0/6.0) > 1e-14 {
		t.Errorf("volume = %g, want 1/6", v)
	}
	checkMesh(t, m, "after 1:2")
}

func TestRefine14SingleTet(t *testing.T) {
	m := singleTet()
	a := New(m)
	// Mark two edges of face (0,1,2): upgrade must add the third.
	a.SetMark(m.FindEdge(0, 1), MarkRefine)
	a.SetMark(m.FindEdge(0, 2), MarkRefine)
	st := a.Refine()
	if st.EdgesBisected != 3 {
		t.Errorf("bisected = %d, want 3 (upgrade to 1:4)", st.EdgesBisected)
	}
	if st.Subdivided[KindQuarter] != 1 {
		t.Errorf("subdivided = %v, want one 1:4", st.Subdivided)
	}
	if got := m.NumActiveElems(); got != 4 {
		t.Errorf("active elems = %d, want 4", got)
	}
	if v := m.TotalVolume(); math.Abs(v-1.0/6.0) > 1e-14 {
		t.Errorf("volume = %g, want 1/6", v)
	}
	checkMesh(t, m, "after 1:4")
}

func TestRefine18SingleTet(t *testing.T) {
	m := singleTet()
	a := New(m)
	// Two opposite edges cannot fit one face: upgrade to 1:8.
	a.SetMark(m.FindEdge(0, 1), MarkRefine)
	a.SetMark(m.FindEdge(2, 3), MarkRefine)
	st := a.Refine()
	if st.EdgesBisected != 6 {
		t.Errorf("bisected = %d, want 6", st.EdgesBisected)
	}
	if st.Subdivided[KindFull] != 1 {
		t.Errorf("subdivided = %v, want one 1:8", st.Subdivided)
	}
	if got := m.NumActiveElems(); got != 8 {
		t.Errorf("active elems = %d, want 8", got)
	}
	if v := m.TotalVolume(); math.Abs(v-1.0/6.0) > 1e-14 {
		t.Errorf("volume = %g (children must tile the parent exactly)", v)
	}
	checkMesh(t, m, "after 1:8")
}

func TestRefineVolumeConservedAllPatterns(t *testing.T) {
	// Every upgrade class must conserve total volume on the unit cube.
	for _, marks := range [][][2]mesh.VertID{
		{{0, 1}},         // some 1:2s
		{{0, 1}, {0, 2}}, // 1:4 upgrades
		{{0, 7}},         // likely interior/diagonal edge
	} {
		m := meshgen.UnitCube()
		a := New(m)
		for _, mk := range marks {
			e := m.FindEdge(mk[0], mk[1])
			if e == mesh.InvalidEdge {
				continue
			}
			a.SetMark(e, MarkRefine)
		}
		a.Refine()
		if v := m.TotalVolume(); math.Abs(v-1) > 1e-12 {
			t.Errorf("marks %v: volume = %g, want 1", marks, v)
		}
		checkMesh(t, m, "cube refine")
	}
}

func TestPropagationAcrossElements(t *testing.T) {
	// Refining the body diagonal of a cube (shared by all 6 tets) must
	// propagate a consistent pattern to every element.
	m := meshgen.UnitCube()
	a := New(m)
	d := m.FindEdge(0, 7) // (0,0,0)-(1,1,1) under meshgen vertex ordering
	if d == mesh.InvalidEdge {
		t.Fatal("no body diagonal found")
	}
	if got := m.Edge(d).NumElems(); got != 6 {
		t.Fatalf("diagonal shared by %d elements, want 6", got)
	}
	a.SetMark(d, MarkRefine)
	st := a.Refine()
	if st.TotalSubdivided() != 6 {
		t.Errorf("subdivided %d elements, want all 6", st.TotalSubdivided())
	}
	if v := m.TotalVolume(); math.Abs(v-1) > 1e-12 {
		t.Errorf("volume = %g, want 1", v)
	}
	checkMesh(t, m, "diagonal refine")
}

func TestRefineFullCube(t *testing.T) {
	m := meshgen.UnitCube()
	a := New(m)
	n := a.MarkRegion(geom.All{}, MarkRefine)
	if n != 19 {
		t.Fatalf("marked %d edges, want all 19", n)
	}
	st := a.Refine()
	if st.Subdivided[KindFull] != 6 {
		t.Errorf("subdivided = %v, want six 1:8", st.Subdivided)
	}
	if got := m.NumActiveElems(); got != 48 {
		t.Errorf("active elems = %d, want 48", got)
	}
	// Boundary faces: 12 quads-halves, each fully split into 4.
	if got := m.Stats().ActiveFaces; got != 48 {
		t.Errorf("active faces = %d, want 48", got)
	}
	if v := m.TotalVolume(); math.Abs(v-1) > 1e-12 {
		t.Errorf("volume = %g, want 1", v)
	}
	checkMesh(t, m, "full refine")
}

func TestCoarsenRestoresInitialMesh(t *testing.T) {
	// The Local_1 scenario of Table 1: refinement followed by coarsening
	// of everything restores the initial mesh sizes exactly.
	m := meshgen.SmallBox()
	s0 := m.Stats()
	a := New(m)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Radius: 0.3}, MarkRefine)
	a.Refine()
	checkMesh(t, m, "after refine")
	s1 := m.Stats()
	if s1.ActiveElems <= s0.ActiveElems {
		t.Fatalf("refinement did not grow the mesh: %+v -> %+v", s0, s1)
	}

	a.MarkRegion(geom.All{}, MarkCoarsen)
	cst := a.Coarsen()
	checkMesh(t, m, "after coarsen")
	s2 := m.Stats()
	if s2.ActiveElems != s0.ActiveElems || s2.ActiveEdges != s0.ActiveEdges ||
		s2.Verts != s0.Verts || s2.ActiveFaces != s0.ActiveFaces {
		t.Errorf("coarsening did not restore initial mesh: initial %+v, final %+v", s0, s2)
	}
	if cst.GroupsRemoved == 0 {
		t.Error("no groups removed")
	}
	if v0, v2 := 1.0, m.TotalVolume(); math.Abs(v2-v0) > 1e-9 {
		t.Errorf("volume = %g, want 1", v2)
	}
	// After compaction the mesh must be byte-for-byte the initial size.
	a.Compact()
	checkMesh(t, m, "after compact")
	if len(m.Elems) != s0.ActiveElems {
		t.Errorf("compacted element slab = %d, want %d", len(m.Elems), s0.ActiveElems)
	}
}

func TestPartialCoarsenKeepsConformity(t *testing.T) {
	// Coarsen only part of a refined region: reinstated parents adjacent
	// to still-refined neighbours must be re-refined for validity.
	m := meshgen.SmallBox()
	a := New(m)
	a.MarkRegion(geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 0.6, Y: 1, Z: 1}}, MarkRefine)
	a.Refine()
	checkMesh(t, m, "after refine")
	nRefined := m.NumActiveElems()

	a.MarkRegion(geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 0.3, Y: 1, Z: 1}}, MarkCoarsen)
	st := a.Coarsen()
	checkMesh(t, m, "after partial coarsen")
	if st.GroupsRemoved == 0 {
		t.Error("expected some coarsening")
	}
	n := m.NumActiveElems()
	if n >= nRefined {
		t.Errorf("mesh did not shrink: %d -> %d", nRefined, n)
	}
	if n < 384 {
		t.Errorf("mesh shrunk below initial size: %d", n)
	}
	if v := m.TotalVolume(); math.Abs(v-1) > 1e-9 {
		t.Errorf("volume = %g, want 1", v)
	}
}

func TestRepeatedAdaptionCycles(t *testing.T) {
	// Multi-level refinement and coarsening across several cycles.
	m := meshgen.SmallBox()
	a := New(m)
	sphere := geom.Sphere{Center: geom.Vec3{X: 0.25, Y: 0.25, Z: 0.25}, Radius: 0.35}
	for cycle := 0; cycle < 3; cycle++ {
		a.MarkRegion(sphere, MarkRefine)
		a.Refine()
		checkMesh(t, m, "cycle refine")
	}
	if v := m.TotalVolume(); math.Abs(v-1) > 1e-9 {
		t.Fatalf("volume drifted: %g", v)
	}
	for cycle := 0; cycle < 4; cycle++ {
		a.MarkRegion(geom.All{}, MarkCoarsen)
		a.Coarsen()
		checkMesh(t, m, "cycle coarsen")
	}
	if got := m.NumActiveElems(); got != 384 {
		t.Errorf("after full coarsening: %d elems, want 384", got)
	}
}

func TestMarkRandomFraction(t *testing.T) {
	m := meshgen.SmallBox()
	a := New(m)
	total := m.NumActiveEdges()
	n := a.MarkRandom(0.35, MarkRefine, 42)
	want := int(math.Ceil(0.35 * float64(total)))
	if n != want {
		t.Errorf("marked %d, want %d", n, want)
	}
	got := 0
	for _, mk := range a.MarksSnapshot() {
		if mk == MarkRefine {
			got++
		}
	}
	if got != n {
		t.Errorf("%d edges carry the mark, MarkRandom reported %d", got, n)
	}
	// Determinism.
	a2 := New(meshgen.SmallBox())
	a2.MarkRandom(0.35, MarkRefine, 42)
	for e := range a.marks {
		if a.marks[e] != a2.marks[e] {
			t.Fatal("MarkRandom not deterministic for equal seeds")
		}
	}
}

func TestSphereForFraction(t *testing.T) {
	m := meshgen.SmallBox()
	c := geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	s := SphereForFraction(m, c, 0.05)
	a := New(m)
	n := a.MarkRegion(s, MarkRefine)
	frac := float64(n) / float64(m.NumActiveEdges())
	if frac < 0.02 || frac > 0.10 {
		t.Errorf("sphere captured %.1f%% of edges, want ≈5%%", 100*frac)
	}
}

func TestBoxForFraction(t *testing.T) {
	// A warped mesh has no distance ties, so the tie-aware quantile can
	// hit the target fraction tightly.
	m := meshgen.RotorDisk(meshgen.RotorParams{
		NR: 8, NTheta: 10, NZ: 6, R0: 0.5, R1: 2, Sweep: 2.5, Height: 1,
	})
	b := BoxForFraction(m, geom.Vec3{X: 0.5, Y: 1.0, Z: 0}, 0.35)
	a := New(m)
	n := a.MarkRegion(b, MarkRefine)
	frac := float64(n) / float64(m.NumActiveEdges())
	if frac < 0.28 || frac > 0.42 {
		t.Errorf("box captured %.1f%% of edges, want ≈35%%", 100*frac)
	}
}

func TestBoxForFractionLatticeBestAchievable(t *testing.T) {
	// On a coarse lattice the Chebyshev shells are discrete; the sizing
	// must return the best achievable shell rather than overshooting to
	// 100% or undershooting to 0.
	m := meshgen.SmallBox()
	c := geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	b := BoxForFraction(m, c, 0.35)
	a := New(m)
	n := a.MarkRegion(b, MarkRefine)
	frac := float64(n) / float64(m.NumActiveEdges())
	if frac <= 0.04 || frac >= 0.99 {
		t.Errorf("box captured %.1f%% of edges: degenerate shell chosen", 100*frac)
	}
}

func TestMarkError(t *testing.T) {
	m := meshgen.UnitCube()
	a := New(m)
	errv := make([]float64, m.EdgeSlots())
	errv[0] = 1.0
	errv[1] = -1.0
	nr, nc := a.MarkError(errv, 0.5, -0.5)
	if nr != 1 || nc != 1 {
		t.Errorf("marked (%d,%d), want (1,1)", nr, nc)
	}
	if a.MarkOf(0) != MarkRefine || a.MarkOf(1) != MarkCoarsen {
		t.Error("wrong marks applied")
	}
}

func TestInterpolateBisections(t *testing.T) {
	m := singleTet()
	field := []float64{1, 3, 5, 7}
	a := New(m)
	a.SetMark(m.FindEdge(0, 1), MarkRefine)
	a.SetMark(m.FindEdge(2, 3), MarkRefine) // upgrades to 1:8
	a.Refine()
	out := InterpolateBisections(m, field)
	if len(out) != m.VertSlots() {
		t.Fatalf("field length %d != %d verts", len(out), m.VertSlots())
	}
	mid01 := m.Edge(m.FindEdge(0, 1)).Mid
	if out[mid01] != 2 {
		t.Errorf("midpoint(0,1) value = %g, want 2", out[mid01])
	}
	mid23 := m.Edge(m.FindEdge(2, 3)).Mid
	if out[mid23] != 6 {
		t.Errorf("midpoint(2,3) value = %g, want 6", out[mid23])
	}
}

func TestPatternUpgradeProperties(t *testing.T) {
	for p := Pattern(0); p < 64; p++ {
		up := p.Upgrade()
		if !up.Valid() {
			t.Errorf("Upgrade(%06b) = %06b invalid", p, up)
		}
		if p&^up != 0 {
			t.Errorf("Upgrade(%06b) = %06b drops marks", p, up)
		}
		if up.Upgrade() != up {
			t.Errorf("Upgrade not idempotent on %06b", p)
		}
		// Minimality: every valid pattern containing p must be ≥ up in
		// popcount.
		for q := Pattern(0); q < 64; q++ {
			if q.Valid() && p&^q == 0 && popcount(q) < popcount(up) {
				t.Errorf("Upgrade(%06b)=%06b not minimal; %06b fits", p, up, q)
			}
		}
	}
}

func popcount(p Pattern) int {
	n := 0
	for p != 0 {
		n += int(p & 1)
		p >>= 1
	}
	return n
}

func TestKindString(t *testing.T) {
	if KindHalf.String() != "1:2" || KindQuarter.String() != "1:4" || KindFull.String() != "1:8" || KindNone.String() != "none" {
		t.Error("Kind strings wrong")
	}
	if Local1.String() != "Local_1" || Local2.String() != "Local_2" || Random.String() != "Random" {
		t.Error("Strategy strings wrong")
	}
}

func TestChildrenTrackRootAndLevel(t *testing.T) {
	m := meshgen.UnitCube()
	a := New(m)
	a.MarkRegion(geom.All{}, MarkRefine)
	a.Refine()
	for i := range m.Elems {
		el := &m.Elems[i]
		if !el.Active() {
			continue
		}
		if el.Level == 1 {
			if el.Parent == mesh.InvalidElem {
				t.Fatal("level-1 element without parent")
			}
			if el.Root != m.Elems[el.Parent].Root {
				t.Fatal("child root != parent root")
			}
		}
	}
}
