// Package sparse provides the small sparse-linear-algebra substrate needed
// by the spectral mesh partitioner: CSR matrices, graph Laplacians, a
// Lanczos eigensolver for the Fiedler vector, and a symmetric tridiagonal
// eigensolver. It replaces the eigensolvers the paper obtained from the
// Chaco package.
package sparse

import (
	"math"
	"math/rand"
)

// CSR is a square sparse matrix in compressed sparse row form.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NewCSR assembles a CSR matrix from per-row column/value pairs.
func NewCSR(rows [][]int32, vals [][]float64) *CSR {
	n := len(rows)
	m := &CSR{N: n, RowPtr: make([]int32, n+1)}
	nnz := 0
	for _, r := range rows {
		nnz += len(r)
	}
	m.Col = make([]int32, 0, nnz)
	m.Val = make([]float64, 0, nnz)
	for i := 0; i < n; i++ {
		m.RowPtr[i] = int32(len(m.Col))
		m.Col = append(m.Col, rows[i]...)
		m.Val = append(m.Val, vals[i]...)
	}
	m.RowPtr[n] = int32(len(m.Col))
	return m
}

// Laplacian builds the combinatorial graph Laplacian L = D − A from an
// adjacency list (uniform edge weights).
func Laplacian(adj [][]int32) *CSR {
	n := len(adj)
	rows := make([][]int32, n)
	vals := make([][]float64, n)
	for i, nbrs := range adj {
		rows[i] = make([]int32, 0, len(nbrs)+1)
		vals[i] = make([]float64, 0, len(nbrs)+1)
		rows[i] = append(rows[i], int32(i))
		vals[i] = append(vals[i], float64(len(nbrs)))
		for _, j := range nbrs {
			rows[i] = append(rows[i], j)
			vals[i] = append(vals[i], -1)
		}
	}
	return NewCSR(rows, vals)
}

// MulVec computes y = A·x.
func (m *CSR) MulVec(x, y []float64) {
	for i := 0; i < m.N; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.Col[k]]
		}
		y[i] = s
	}
}

// Dot returns the inner product of two vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// Axpy computes y += a·x.
func Axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// Scale multiplies v by a in place.
func Scale(a float64, v []float64) {
	for i := range v {
		v[i] *= a
	}
}

// FiedlerCounted computes an approximation to the Fiedler vector of
// Laplacian L — the eigenvector of the second-smallest eigenvalue — using
// Lanczos iteration with full reorthogonalization, deflating the constant
// vector (the trivial nullspace of a connected graph's Laplacian). maxIter
// bounds the Krylov dimension; tol is the residual tolerance on the Ritz
// pair. The returned vector has unit norm and zero mean.
//
// Partition quality does not require machine-precision eigenvectors, so
// callers typically pass maxIter ≈ 60 and tol ≈ 1e-4.
//
// The second result is an abstract operation count of the work actually
// performed: one op per nonzero visited by each sparse matvec and per
// vector element touched by the dot products, AXPYs, and full
// reorthogonalization (which grows with the Krylov basis). The count
// feeds the machine-model cost accounting of the spectral bisection —
// the eigen-solve is exactly the expense the paper's framework treats as
// a black box, and the count makes it chargeable.
func FiedlerCounted(L *CSR, maxIter int, tol float64, seed int64) ([]float64, int64) {
	var ops int64
	n := L.N
	if n == 1 {
		return []float64{0}, 1
	}
	if maxIter > n-1 {
		maxIter = n - 1
	}
	if maxIter < 1 {
		maxIter = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// Every tridiagonal eigen-solve below starts inverse iteration from
	// the same seed-7 vector, of at most maxIter entries; draw it once.
	start := make([]float64, maxIter)
	rng7 := rand.New(rand.NewSource(7))
	for i := range start {
		start[i] = rng7.Float64() - 0.5
	}

	// Start vector: random, orthogonal to the constant vector.
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	deflate(v)
	Scale(1/Norm(v), v)

	basis := make([][]float64, 0, maxIter)
	var alpha, beta []float64
	w := make([]float64, n)
	prev := make([]float64, n)

	nnz := int64(len(L.Col))
	for j := 0; j < maxIter; j++ {
		basis = append(basis, append([]float64(nil), v...))
		L.MulVec(v, w)
		a := Dot(v, w)
		alpha = append(alpha, a)
		Axpy(-a, v, w)
		if j > 0 {
			Axpy(-beta[j-1], prev, w)
		}
		// Full reorthogonalization keeps the basis clean (cheap at the
		// coarse-graph sizes the multilevel partitioner uses).
		deflate(w)
		for _, q := range basis {
			Axpy(-Dot(q, w), q, w)
		}
		// Matvec over the nonzeros, ~6 n-length vector passes, and 2
		// passes per reorthogonalized basis vector.
		ops += nnz + int64(n)*int64(6+2*len(basis))
		b := Norm(w)
		if b < 1e-12 {
			break
		}
		beta = append(beta, b)
		copy(prev, v)
		copy(v, w)
		Scale(1/b, v)

		// Check convergence of the smallest Ritz pair every few steps.
		if j >= 2 && (j%4 == 0 || j == maxIter-1) {
			if resid := smallestRitzResidual(alpha, beta[:len(alpha)-1], start); resid*math.Abs(b) < tol {
				break
			}
		}
	}

	// Solve the tridiagonal eigenproblem and assemble the Ritz vector of
	// the smallest eigenvalue (the deflated operator's smallest is the
	// original's second-smallest).
	k := len(alpha)
	d := append([]float64(nil), alpha...)
	var e []float64
	if k > 1 {
		e = append([]float64(nil), beta[:k-1]...)
	}
	evec := make([]float64, k)
	tridiagSmallest(d, e, start, evec)

	out := make([]float64, n)
	for i, q := range basis {
		Axpy(evec[i], q, out)
	}
	deflate(out)
	if nm := Norm(out); nm > 0 {
		Scale(1/nm, out)
	}
	ops += int64(len(basis)) * int64(n) // Ritz-vector assembly
	return out, ops
}

// deflate removes the mean from v (projects out the constant vector).
func deflate(v []float64) {
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for i := range v {
		v[i] -= mean
	}
}

// smallestRitzResidual returns the magnitude of the last eigenvector
// component of the smallest eigenpair of the symmetric tridiagonal matrix
// (diag d, off-diag e) — the standard Lanczos residual indicator. start
// is tridiagSmallest's start vector.
func smallestRitzResidual(d, e, start []float64) float64 {
	dd := append([]float64(nil), d...)
	ee := append([]float64(nil), e...)
	vec := make([]float64, len(d))
	tridiagSmallest(dd, ee, start, vec)
	return math.Abs(vec[len(vec)-1])
}

// tridiagSmallest computes the smallest eigenvalue of the symmetric
// tridiagonal matrix with diagonal d and off-diagonal e (len(e) =
// len(d)-1), storing a unit eigenvector in vec, and returns the
// eigenvalue. d and e are clobbered. It uses bisection (Sturm sequences)
// for the eigenvalue and inverse iteration for the vector, started from
// the first len(d) entries of start.
func tridiagSmallest(d, e, start, vec []float64) float64 {
	n := len(d)
	if n == 1 {
		vec[0] = 1
		return d[0]
	}
	// Gershgorin bounds.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		if i < n-1 {
			r += math.Abs(e[i])
		}
		lo = math.Min(lo, d[i]-r)
		hi = math.Max(hi, d[i]+r)
	}
	// Sturm count: number of eigenvalues < x.
	count := func(x float64) int {
		cnt := 0
		q := d[0] - x
		if q < 0 {
			cnt++
		}
		for i := 1; i < n; i++ {
			den := q
			if den == 0 {
				den = 1e-300
			}
			q = d[i] - x - e[i-1]*e[i-1]/den
			if q < 0 {
				cnt++
			}
		}
		return cnt
	}
	for iter := 0; iter < 200 && hi-lo > 1e-12*(1+math.Abs(lo)); iter++ {
		mid := 0.5 * (lo + hi)
		if count(mid) >= 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	lambda := 0.5 * (lo + hi)

	// Inverse iteration: solve (T − λI)x = b via the Thomas algorithm
	// with a tiny shift to keep the factorization nonsingular.
	shift := lambda - 1e-10*(1+math.Abs(lambda))
	x := vec
	copy(x, start[:n])
	diag := make([]float64, n)
	for it := 0; it < 3; it++ {
		// Thomas-algorithm solve of (T − shift·I)x = b.
		for i := 0; i < n; i++ {
			diag[i] = d[i] - shift
		}
		b := append([]float64(nil), x...)
		for i := 1; i < n; i++ {
			if math.Abs(diag[i-1]) < 1e-300 {
				diag[i-1] = 1e-300
			}
			m := e[i-1] / diag[i-1]
			diag[i] -= m * e[i-1]
			b[i] -= m * b[i-1]
		}
		if math.Abs(diag[n-1]) < 1e-300 {
			diag[n-1] = 1e-300
		}
		x[n-1] = b[n-1] / diag[n-1]
		for i := n - 2; i >= 0; i-- {
			x[i] = (b[i] - e[i]*x[i+1]) / diag[i]
		}
		nm := Norm(x)
		if nm == 0 {
			break
		}
		Scale(1/nm, x)
	}
	return lambda
}
