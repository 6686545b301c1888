package sparse

import (
	"math"
	"slices"
	"testing"
)

// laplacianOf builds the Laplacian of the graph with the given rows.
func laplacianOf(adj [][]int32) *CSR {
	L := new(CSR)
	Laplacian(L, len(adj), func(i int, dst []int32) []int32 { return append(dst, adj[i]...) })
	return L
}

func pathGraph(n int) [][]int32 {
	adj := make([][]int32, n)
	for i := 0; i < n-1; i++ {
		adj[i] = append(adj[i], int32(i+1))
		adj[i+1] = append(adj[i+1], int32(i))
	}
	return adj
}

func TestLaplacianStructure(t *testing.T) {
	L := laplacianOf(pathGraph(4))
	if L.N != 4 {
		t.Fatalf("N = %d", L.N)
	}
	// Each row is the degree on the diagonal, then −1 per neighbour in row
	// order.
	wantPtr := []int32{0, 2, 5, 8, 10}
	wantCol := []int32{0, 1, 1, 0, 2, 2, 1, 3, 3, 2}
	wantVal := []float64{1, -1, 2, -1, -1, 2, -1, -1, 1, -1}
	if !slices.Equal(L.RowPtr, wantPtr) || !slices.Equal(L.Col, wantCol) || !slices.Equal(L.Val, wantVal) {
		t.Fatalf("L = %v %v %v, want %v %v %v", L.RowPtr, L.Col, L.Val, wantPtr, wantCol, wantVal)
	}
	// Row sums of a Laplacian are zero.
	x := []float64{1, 1, 1, 1}
	y := make([]float64, 4)
	L.MulVec(x, y)
	for i, v := range y {
		if math.Abs(v) > 1e-14 {
			t.Errorf("L·1 row %d = %g, want 0", i, v)
		}
	}
}

func TestMulVec(t *testing.T) {
	// 2x2: [[2,-1],[-1,2]]
	m := &CSR{N: 2, RowPtr: []int32{0, 2, 4}, Col: []int32{0, 1, 0, 1}, Val: []float64{2, -1, -1, 2}}
	y := make([]float64, 2)
	m.MulVec([]float64{1, 2}, y)
	if y[0] != 0 || y[1] != 3 {
		t.Errorf("y = %v, want [0 3]", y)
	}
}

func TestBlasHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	if Norm([]float64{3, 4}) != 5 {
		t.Errorf("Norm = %v", Norm([]float64{3, 4}))
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Errorf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestFiedlerPathGraph(t *testing.T) {
	// The Fiedler vector of a path graph is monotone: it orders the path.
	n := 20
	L := laplacianOf(pathGraph(n))
	f, _ := new(Lanczos).Fiedler(L, 40, 1e-8, 1)
	// Zero mean, unit norm.
	mean := 0.0
	for _, v := range f {
		mean += v
	}
	if math.Abs(mean/float64(n)) > 1e-9 {
		t.Errorf("mean = %g, want 0", mean/float64(n))
	}
	if math.Abs(Norm(f)-1) > 1e-9 {
		t.Errorf("norm = %g, want 1", Norm(f))
	}
	// Monotone (up to global sign).
	inc, dec := true, true
	for i := 1; i < n; i++ {
		if f[i] < f[i-1] {
			inc = false
		}
		if f[i] > f[i-1] {
			dec = false
		}
	}
	if !inc && !dec {
		t.Errorf("Fiedler vector of path not monotone: %v", f)
	}
}

func TestFiedlerBisectsDumbbell(t *testing.T) {
	// Two K5 cliques joined by one edge: the Fiedler vector must separate
	// the cliques by sign.
	n := 10
	adj := make([][]int32, n)
	link := func(a, b int) {
		adj[a] = append(adj[a], int32(b))
		adj[b] = append(adj[b], int32(a))
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			link(i, j)
			link(i+5, j+5)
		}
	}
	link(0, 5)
	L := laplacianOf(adj)
	f, _ := new(Lanczos).Fiedler(L, 40, 1e-8, 3)
	for i := 1; i < 5; i++ {
		if f[i]*f[0] < 0 {
			t.Errorf("vertex %d separated from its clique", i)
		}
		if f[i+5]*f[5] < 0 {
			t.Errorf("vertex %d separated from its clique", i+5)
		}
	}
	if f[0]*f[5] > 0 {
		t.Error("cliques not separated by sign")
	}
}

func TestFiedlerEigenvalueResidual(t *testing.T) {
	// Verify L·f ≈ λ2·f on a ring (known λ2 = 2−2cos(2π/n)).
	n := 16
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		adj[i] = append(adj[i], int32(j))
		adj[j] = append(adj[j], int32(i))
	}
	L := laplacianOf(adj)
	f, _ := new(Lanczos).Fiedler(L, 40, 1e-10, 5)
	y := make([]float64, n)
	L.MulVec(f, y)
	lambda := Dot(f, y)
	want := 2 - 2*math.Cos(2*math.Pi/float64(n))
	if math.Abs(lambda-want) > 1e-6 {
		t.Errorf("λ2 = %g, want %g", lambda, want)
	}
	// Residual ‖Lf − λf‖ small.
	Axpy(-lambda, f, y)
	if r := Norm(y); r > 1e-5 {
		t.Errorf("residual = %g", r)
	}
}

func TestFiedlerSingletonGraph(t *testing.T) {
	L := laplacianOf([][]int32{nil})
	f, _ := new(Lanczos).Fiedler(L, 10, 1e-6, 1)
	if len(f) != 1 || f[0] != 0 {
		t.Errorf("singleton Fiedler = %v", f)
	}
}

func TestTridiagSmallest(t *testing.T) {
	// T = [[2,-1,0],[-1,2,-1],[0,-1,2]]: eigenvalues 2-√2, 2, 2+√2.
	d := []float64{2, 2, 2}
	e := []float64{-1, -1}
	vec := make([]float64, 3)
	got := tridiagSmallest(d, e, []float64{0.3, -0.2, 0.1}, vec, make([]float64, 3), make([]float64, 3))
	want := 2 - math.Sqrt2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("λmin = %g, want %g", got, want)
	}
	// Eigenvector check: v ∝ (1, √2, 1).
	r := vec[1] / vec[0]
	if math.Abs(math.Abs(r)-math.Sqrt2) > 1e-6 {
		t.Errorf("eigenvector ratio = %g, want ±√2", r)
	}
}

// ringOf returns the rows of an n-vertex ring with one chord (0, n/2), so
// the solves below are not all symmetric under rotation.
func ringOf(n int) [][]int32 {
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		adj[i] = append(adj[i], int32(j))
		adj[j] = append(adj[j], int32(i))
	}
	adj[0] = append(adj[0], int32(n/2))
	adj[n/2] = append(adj[n/2], 0)
	return adj
}

// TestFiedlerReusesWork pins the workspace contract: a solve no larger
// than an earlier one allocates only its result vector, and a reused
// workspace gives the same bits and op count as a fresh one, whether the
// previous solve was larger or smaller.
func TestFiedlerReusesWork(t *testing.T) {
	big, small := laplacianOf(ringOf(300)), laplacianOf(ringOf(40))
	var lz Lanczos
	for _, L := range []*CSR{small, big, small, big} {
		got, gotOps := lz.Fiedler(L, 60, 1e-4, 42)
		want, wantOps := new(Lanczos).Fiedler(L, 60, 1e-4, 42)
		if gotOps != wantOps || !slices.Equal(got, want) {
			t.Fatalf("n=%d: reused workspace gives ops %d, fresh %d (vectors equal: %v)",
				L.N, gotOps, wantOps, slices.Equal(got, want))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { lz.Fiedler(big, 60, 1e-4, 42) }); allocs != 1 {
		t.Errorf("a repeated solve allocates %v times, want 1 (its result)", allocs)
	}
}
