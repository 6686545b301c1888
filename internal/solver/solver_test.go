package solver

import (
	"math"
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
)

func TestIterateSmooths(t *testing.T) {
	m := meshgen.SmallBox()
	s := New(m, GaussianPulse(geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, 0.1))
	r0 := s.Residual()
	s.Iterate(20)
	r1 := s.Residual()
	if r1 >= r0 {
		t.Errorf("smoothing did not reduce residual: %g -> %g", r0, r1)
	}
}

func TestIterateConservesConstant(t *testing.T) {
	m := meshgen.SmallBox()
	s := New(m, func(geom.Vec3) float64 { return 3.5 })
	s.Iterate(5)
	for i, u := range s.U {
		if math.Abs(u-3.5) > 1e-12 {
			t.Fatalf("vertex %d drifted to %g", i, u)
		}
	}
	if s.Residual() > 1e-12 {
		t.Error("constant field has nonzero residual")
	}
}

func TestEdgeErrorLocatesFeature(t *testing.T) {
	m := meshgen.SmallBox()
	c := geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	s := New(m, GaussianPulse(c, 0.15))
	errv := s.EdgeError()
	// The highest-error edge must be near the pulse, the lowest far away.
	best, worst := -1, -1
	for ei, e := range errv {
		if e == 0 {
			continue
		}
		if best < 0 || e > errv[best] {
			best = ei
		}
		if worst < 0 || e < errv[worst] {
			worst = ei
		}
	}
	if best < 0 {
		t.Fatal("no error values")
	}
	if m.EdgeMid(mesh.EdgeID(best)).Dist(c) > m.EdgeMid(mesh.EdgeID(worst)).Dist(c) {
		t.Error("error indicator does not peak near the feature")
	}
}

func TestSyncAfterAdaption(t *testing.T) {
	m := meshgen.SmallBox()
	s := New(m, PlanarShock(0.5, 0.1))
	a := adapt.New(m)
	a.MarkRegion(geom.AABB{Min: geom.Vec3{X: 0.3}, Max: geom.Vec3{X: 0.7, Y: 1, Z: 1}}, adapt.MarkRefine)
	a.Refine()
	s.SyncAfterAdaption()
	if len(s.U) != len(m.Verts) {
		t.Fatalf("solution has %d entries for %d verts", len(s.U), len(m.Verts))
	}
	// The interpolated field must stay within the original bounds.
	for i, u := range s.U {
		if m.Verts[i].Dead {
			continue
		}
		if u < -1-1e-9 || u > 1+1e-9 {
			t.Fatalf("vertex %d out of range: %g", i, u)
		}
	}
	// And a second sync must be a no-op (log cleared).
	n := len(s.U)
	s.SyncAfterAdaption()
	if len(s.U) != n {
		t.Error("second sync changed the field")
	}
}

func TestErrorDrivenAdaptionLoop(t *testing.T) {
	// End-to-end: solve, mark by error, refine, sync — sizes grow where
	// the shock sits.
	m := meshgen.SmallBox()
	s := New(m, PlanarShock(0.5, 0.05))
	a := adapt.New(m)
	before := m.NumActiveElems()
	errv := s.EdgeError()
	hi := percentile(errv, 0.9)
	nr, _ := a.MarkError(errv, hi, -1)
	if nr == 0 {
		t.Fatal("no edges targeted")
	}
	a.Refine()
	s.SyncAfterAdaption()
	if m.NumActiveElems() <= before {
		t.Error("no growth")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	// Refined elements should cluster near the shock plane x=0.5.
	var nearSum, farSum int
	for i := range m.Elems {
		el := &m.Elems[i]
		if !el.Active() || el.Level == 0 {
			continue
		}
		if math.Abs(m.ElemCentroid(mesh.ElemID(i)).X-0.5) < 0.25 {
			nearSum++
		} else {
			farSum++
		}
	}
	if nearSum <= farSum {
		t.Errorf("refinement did not localize: near=%d far=%d", nearSum, farSum)
	}
}

func percentile(v []float64, q float64) float64 {
	var pos []float64
	for _, x := range v {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if len(pos) == 0 {
		return 0
	}
	// Nth element via simple sort.
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && pos[j] < pos[j-1]; j-- {
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
	idx := int(q * float64(len(pos)))
	if idx >= len(pos) {
		idx = len(pos) - 1
	}
	return pos[idx]
}

// linear is a field midpoint interpolation reproduces, and one that tells
// the lattice's vertices apart.
func linear(p geom.Vec3) float64 { return p.X + 8*p.Y + 64*p.Z }

// checkLinear verifies the field covers the vertex slab and still holds
// the linear field at every live vertex's position.
func checkLinear(t *testing.T, s *Solver, step string) {
	t.Helper()
	if len(s.U) != len(s.M.Verts) {
		t.Fatalf("%s: %d values for %d vertex slots", step, len(s.U), len(s.M.Verts))
	}
	for v := range s.M.Verts {
		if vt := &s.M.Verts[v]; !vt.Dead && math.Abs(s.U[v]-linear(vt.Pos)) > 1e-12 {
			t.Fatalf("%s: vertex %d at %v holds %g, want %g", step, v, vt.Pos, s.U[v], linear(vt.Pos))
		}
	}
}

// TestSolverFieldFollowsVertices checks that the field, looked up by vertex
// position, is unchanged by compaction: one compaction before a sync, then
// two with a refinement between them before the next.
func TestSolverFieldFollowsVertices(t *testing.T) {
	m := meshgen.SmallBox()
	a := adapt.New(m)
	s := New(m, linear)
	left := geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}
	right := geom.Sphere{Center: geom.Vec3{X: 1, Y: 1, Z: 1}, Radius: 0.6}

	a.MarkRegion(left, adapt.MarkRefine)
	a.Refine()
	a.MarkRegion(right, adapt.MarkRefine)
	a.Refine()
	s.SyncAfterAdaption()
	checkLinear(t, s, "refined")

	a.MarkRegion(left, adapt.MarkCoarsen)
	a.Coarsen()
	if cm := a.Compact(); cm.Vert == nil {
		t.Fatal("coarsening left nothing to compact")
	}
	s.SyncAfterAdaption()
	checkLinear(t, s, "one compaction")

	a.MarkRegion(left, adapt.MarkRefine)
	a.Refine()
	a.MarkRegion(right, adapt.MarkCoarsen)
	a.Coarsen()
	a.Compact()
	a.MarkRegion(left, adapt.MarkCoarsen)
	a.Coarsen()
	a.Compact()
	s.SyncAfterAdaption()
	checkLinear(t, s, "two compactions before one sync")
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncAfterUndoneBisections is the regression test for a bisection log
// that outlived what it names: edges bisected and coarsened away again
// before any sync used to reach the interpolation as index -1.
func TestSyncAfterUndoneBisections(t *testing.T) {
	m := meshgen.SmallBox()
	a := adapt.New(m)
	s := New(m, linear)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
	a.Refine()
	a.MarkRegion(geom.All{}, adapt.MarkCoarsen)
	a.Coarsen()
	a.Compact()
	s.SyncAfterAdaption()
	checkLinear(t, s, "refined, coarsened, compacted, synced")
}
