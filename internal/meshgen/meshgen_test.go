package meshgen

import (
	"math"
	"testing"

	"plum/internal/geom"
	"plum/internal/mesh"
)

func TestUnitCubeCounts(t *testing.T) {
	m := UnitCube()
	if got := m.NumActiveElems(); got != 6 {
		t.Errorf("elements = %d, want 6", got)
	}
	if got := m.NumVerts(); got != 8 {
		t.Errorf("verts = %d, want 8", got)
	}
	// Kuhn cube: 12 axis edges + 6 face diagonals + 1 body diagonal = 19.
	if got := m.NumActiveEdges(); got != 19 {
		t.Errorf("edges = %d, want 19", got)
	}
	if got := m.Stats().ActiveFaces; got != 12 {
		t.Errorf("boundary faces = %d, want 12", got)
	}
	if err := m.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestUnitCubeVolume(t *testing.T) {
	m := UnitCube()
	if v := m.TotalVolume(); math.Abs(v-1) > 1e-12 {
		t.Errorf("total volume = %g, want 1", v)
	}
	// Every Kuhn path tet has volume exactly 1/6.
	for i := range m.Elems {
		if v := m.ElemVolume(mesh.ElemID(i)); math.Abs(v-1.0/6.0) > 1e-12 {
			t.Errorf("elem %d volume = %g, want 1/6", i, v)
		}
	}
}

// edgeCountKuhn returns the analytic edge count of an nx×ny×nz Kuhn box.
func edgeCountKuhn(nx, ny, nz int) int {
	axis := nx*(ny+1)*(nz+1) + (nx+1)*ny*(nz+1) + (nx+1)*(ny+1)*nz
	faceDiag := nx*ny*(nz+1) + nx*(ny+1)*nz + (nx+1)*ny*nz
	bodyDiag := nx * ny * nz
	return axis + faceDiag + bodyDiag
}

func TestBoxCounts(t *testing.T) {
	for _, c := range []struct{ nx, ny, nz int }{
		{1, 1, 1}, {2, 2, 2}, {3, 2, 1}, {4, 4, 4},
	} {
		m := Box(c.nx, c.ny, c.nz, geom.Vec3{X: 1, Y: 1, Z: 1})
		wantElems := 6 * c.nx * c.ny * c.nz
		if got := m.NumActiveElems(); got != wantElems {
			t.Errorf("%v: elems = %d, want %d", c, got, wantElems)
		}
		wantVerts := (c.nx + 1) * (c.ny + 1) * (c.nz + 1)
		if got := m.NumVerts(); got != wantVerts {
			t.Errorf("%v: verts = %d, want %d", c, got, wantVerts)
		}
		if got, want := m.NumActiveEdges(), edgeCountKuhn(c.nx, c.ny, c.nz); got != want {
			t.Errorf("%v: edges = %d, want %d", c, got, want)
		}
		wantFaces := 4 * (c.nx*c.ny + c.nx*c.nz + c.ny*c.nz)
		if got := m.Stats().ActiveFaces; got != wantFaces {
			t.Errorf("%v: faces = %d, want %d", c, got, wantFaces)
		}
	}
}

func TestBoxConforming(t *testing.T) {
	m := Box(3, 3, 3, geom.Vec3{X: 1, Y: 1, Z: 1})
	if err := m.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if v := m.TotalVolume(); math.Abs(v-1) > 1e-9 {
		t.Errorf("volume = %g, want 1", v)
	}
	// Each cube's body diagonal must be shared by exactly the 6 path
	// tetrahedra of that cube.
	nvy, nvz := 4, 4
	vid := func(i, j, k int) mesh.VertID { return mesh.VertID((i*nvy+j)*nvz + k) }
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				d := m.FindEdge(vid(i, j, k), vid(i+1, j+1, k+1))
				if d == mesh.InvalidEdge {
					t.Fatalf("cube (%d,%d,%d): missing body diagonal", i, j, k)
				}
				if got := m.Edge(d).NumElems(); got != 6 {
					t.Errorf("cube (%d,%d,%d): diagonal shared by %d tets, want 6", i, j, k, got)
				}
			}
		}
	}
}

func TestBoxScaled(t *testing.T) {
	m := Box(2, 2, 2, geom.Vec3{X: 2, Y: 3, Z: 4})
	if v := m.TotalVolume(); math.Abs(v-24) > 1e-9 {
		t.Errorf("volume = %g, want 24", v)
	}
}

func TestRotorDiskPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large mesh")
	}
	m := PaperMesh()
	elems := m.NumActiveElems()
	edges := m.NumActiveEdges()
	// Paper: 60,968 elements, 78,343 edges. Accept the synthetic analogue
	// within a few percent.
	if elems < 58000 || elems > 64000 {
		t.Errorf("elements = %d, want ≈60,968", elems)
	}
	if edges < 72000 || edges > 82000 {
		t.Errorf("edges = %d, want ≈78,343", edges)
	}
	if err := m.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestRotorDiskGeometry(t *testing.T) {
	p := RotorParams{NR: 4, NTheta: 6, NZ: 3, R0: 1, R1: 2, Sweep: math.Pi / 2, Height: 1}
	m := RotorDisk(p)
	if err := m.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// All vertices must lie within the annulus bounds.
	for i := range mesh.VertID(m.VertSlots()) {
		v := m.Vert(i).Pos
		r := math.Hypot(v.X, v.Y)
		if r < p.R0-1e-9 || r > p.R1+1e-9 {
			t.Fatalf("vertex %d radius %g outside [%g,%g]", i, r, p.R0, p.R1)
		}
		if v.Z < -p.Height/2-1e-9 || v.Z > p.Height/2+1e-9 {
			t.Fatalf("vertex %d z=%g outside height", i, v.Z)
		}
	}
	// Warped mesh must still have positive element volumes (orientation
	// normalization) and a volume close to the analytic annular sector.
	want := p.Sweep / 2 * (p.R1*p.R1 - p.R0*p.R0) * p.Height
	got := m.TotalVolume()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("sector volume = %g, analytic %g (>5%% off)", got, want)
	}
}

func TestSmallBox(t *testing.T) {
	m := SmallBox()
	if got := m.NumActiveElems(); got != 384 {
		t.Errorf("SmallBox elems = %d, want 384", got)
	}
}
