// Package sparse provides the small sparse-linear-algebra substrate needed
// by the spectral mesh partitioner: CSR matrices, graph Laplacians, a
// Lanczos eigensolver for the Fiedler vector with a reusable workspace,
// and a symmetric tridiagonal eigensolver. It replaces the eigensolvers
// the paper obtained from the Chaco package.
package sparse

import (
	"math"
	"math/rand"
	"slices"
)

// CSR is a square sparse matrix in compressed sparse row form.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// Laplacian writes the combinatorial graph Laplacian L = D − A of an
// n-vertex graph (uniform edge weights) into L in one pass, reusing L's
// storage. row appends vertex i's neighbours to dst and returns the
// result; row i of L is the diagonal entry (the degree) followed by −1 for
// each neighbour, in the order row gave them.
func Laplacian(L *CSR, n int, row func(i int, dst []int32) []int32) {
	L.N = n
	L.RowPtr = append(slices.Grow(L.RowPtr[:0], n+1), 0)
	L.Col = L.Col[:0]
	L.Val = L.Val[:0]
	for i := range n {
		d := len(L.Col)
		L.Col = row(i, append(L.Col, int32(i)))
		deg := len(L.Col) - d - 1
		L.Val = append(L.Val, float64(deg))
		for range deg {
			L.Val = append(L.Val, -1)
		}
		L.RowPtr = append(L.RowPtr, int32(len(L.Col)))
	}
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

// Lanczos is the reusable workspace of the Fiedler solve: the Krylov
// basis as one n×maxIter block, the tridiagonal coefficients, the seed-7
// start vector of the tridiagonal solves with their scratch, and the
// solve's random source. It grows to the largest solve it has run, so a
// solve no larger than an earlier one allocates only its result. The zero
// value is ready to use; a Lanczos is not safe for concurrent use.
type Lanczos struct {
	rng             *rand.Rand
	basis, w        []float64
	alpha, beta     []float64
	start           []float64 // seed-7 draws; every solve reads a prefix
	evec, diag, rhs []float64 // tridiagonal solve scratch
}

// Fiedler computes an approximation to the Fiedler vector of Laplacian L
// — the eigenvector of the second-smallest eigenvalue — using Lanczos
// iteration with full reorthogonalization, deflating the constant vector
// (the trivial nullspace of a connected graph's Laplacian). maxIter bounds
// the Krylov dimension; tol is the residual tolerance on the Ritz pair.
// The returned vector is newly allocated, has unit norm and zero mean.
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
func (l *Lanczos) Fiedler(L *CSR, maxIter int, tol float64, seed int64) ([]float64, int64) {
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
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(7))
	}
	// Every tridiagonal eigen-solve starts inverse iteration from the same
	// seed-7 vector, of at most maxIter entries. The draws of a shorter
	// vector are a prefix of a longer one's, so it is drawn again only
	// when it must grow.
	if len(l.start) < maxIter {
		l.start = grow(l.start, maxIter)
		l.rng.Seed(7)
		for i := range l.start {
			l.start[i] = l.rng.Float64() - 0.5
		}
		l.evec = grow(l.evec, maxIter)
		l.diag = grow(l.diag, maxIter)
		l.rhs = grow(l.rhs, maxIter)
	}
	l.basis = grow(l.basis, n*maxIter)
	l.w = grow(l.w, n)
	l.alpha = slices.Grow(l.alpha[:0], maxIter)
	l.beta = slices.Grow(l.beta[:0], maxIter)
	row := func(j int) []float64 { return l.basis[j*n : (j+1)*n] }

	// Start vector: random, orthogonal to the constant vector.
	l.rng.Seed(seed)
	v := row(0)
	for i := range v {
		v[i] = l.rng.Float64() - 0.5
	}
	deflate(v)
	Scale(1/Norm(v), v)

	w := l.w
	nnz := int64(len(L.Col))
	for j := 0; j < maxIter; j++ {
		v := row(j)
		L.MulVec(v, w)
		a := Dot(v, w)
		l.alpha = append(l.alpha, a)
		Axpy(-a, v, w)
		if j > 0 {
			Axpy(-l.beta[j-1], row(j-1), w)
		}
		// Full reorthogonalization keeps the basis clean (cheap at the
		// coarse-graph sizes the multilevel partitioner uses).
		deflate(w)
		for q := range j + 1 {
			Axpy(-Dot(row(q), w), row(q), w)
		}
		// Matvec over the nonzeros, ~6 n-length vector passes, and 2
		// passes per reorthogonalized basis vector.
		ops += nnz + int64(n)*int64(6+2*(j+1))
		b := Norm(w)
		if b < 1e-12 {
			break
		}
		l.beta = append(l.beta, b)
		if j+1 < maxIter {
			next := row(j + 1)
			copy(next, w)
			Scale(1/b, next)
		}

		// Check convergence of the smallest Ritz pair every few steps.
		if j >= 2 && (j%4 == 0 || j == maxIter-1) {
			if resid := l.smallestRitzResidual(l.alpha, l.beta[:j]); resid*math.Abs(b) < tol {
				break
			}
		}
	}

	// Solve the tridiagonal eigenproblem and assemble the Ritz vector of
	// the smallest eigenvalue (the deflated operator's smallest is the
	// original's second-smallest).
	k := len(l.alpha)
	evec := l.evec[:k]
	tridiagSmallest(l.alpha, l.beta[:k-1], l.start, evec, l.diag, l.rhs)

	out := make([]float64, n)
	for i, c := range evec {
		Axpy(c, row(i), out)
	}
	deflate(out)
	if nm := Norm(out); nm > 0 {
		Scale(1/nm, out)
	}
	ops += int64(k) * int64(n) // Ritz-vector assembly
	return out, ops
}

// grow returns s resliced to n entries, reallocated when its capacity is
// short; the entries' values are unspecified.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
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
// (diag d, off-diag e) — the standard Lanczos residual indicator.
func (l *Lanczos) smallestRitzResidual(d, e []float64) float64 {
	vec := l.evec[:len(d)]
	tridiagSmallest(d, e, l.start, vec, l.diag, l.rhs)
	return math.Abs(vec[len(vec)-1])
}

// tridiagSmallest computes the smallest eigenvalue of the symmetric
// tridiagonal matrix with diagonal d and off-diagonal e (len(e) =
// len(d)-1), storing a unit eigenvector in vec, and returns the
// eigenvalue; d and e are only read. It uses bisection (Sturm sequences)
// for the eigenvalue and inverse iteration for the vector, started from
// the first len(d) entries of start. diag and rhs are scratch of at least
// len(d) entries.
func tridiagSmallest(d, e, start, vec, diag, rhs []float64) float64 {
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
	diag, b := diag[:n], rhs[:n]
	for it := 0; it < 3; it++ {
		// Thomas-algorithm solve of (T − shift·I)x = b.
		for i := 0; i < n; i++ {
			diag[i] = d[i] - shift
		}
		copy(b, x)
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
