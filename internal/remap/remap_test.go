package remap

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"plum/internal/machine"
)

// FromDense builds the similarity matrix of len(rows) processors from
// dense rows of at most len(rows)·f non-negative weights each (missing
// trailing columns are zero).
func FromDense(f int, rows [][]int64) *Similarity {
	var oldProc, newPart []int32
	var w []int64
	for i, row := range rows {
		for j, x := range row {
			oldProc, newPart, w = append(oldProc, int32(i)), append(newPart, int32(j)), append(w, x)
		}
	}
	return Build(oldProc, newPart, w, len(rows), f)
}

// paperLikeMatrix builds a P=4, F=2 similarity matrix in the spirit of the
// paper's Fig. 5 worked example (the figure's exact values are not
// recoverable from the scanned text, so the example is reconstructed with
// the same shape: a few dominant diagonal-ish entries plus scattered
// weight).
func paperLikeMatrix() *Similarity {
	return FromDense(2, [][]int64{
		{872, 45, 0, 0, 120, 0, 0, 310},
		{0, 650, 200, 0, 0, 98, 0, 0},
		{55, 0, 720, 430, 0, 0, 160, 0},
		{0, 0, 0, 90, 500, 305, 410, 76},
	})
}

func TestSimilarityBuild(t *testing.T) {
	oldProc := []int32{0, 0, 1, 1}
	newPart := []int32{0, 1, 1, 1}
	wremap := []int64{5, 7, 11, 13}
	s := Build(oldProc, newPart, wremap, 2, 1)
	if s.At(0, 0) != 5 || s.At(0, 1) != 7 || s.At(1, 0) != 0 || s.At(1, 1) != 24 {
		t.Errorf("S = %v", dense(s))
	}
	if s.Total() != 36 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestIdentityMapping(t *testing.T) {
	// Partitions {i·F … i·F+F-1} on processor i: every processor gets
	// exactly F, so the mapping must validate.
	s := FromDense(2, make([][]int64, 3))
	if err := s.Validate(Mapping{0, 0, 1, 1, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(Mapping{0, 0, 0, 1, 2, 2}); err == nil {
		t.Error("accepted a mapping that gives processor 0 three partitions")
	}
}

func TestHeuristicValidAndReasonable(t *testing.T) {
	s := paperLikeMatrix()
	mp, obj := s.Heuristic()
	if err := s.Validate(mp); err != nil {
		t.Fatal(err)
	}
	if obj != s.Objective(mp) {
		t.Error("returned objective inconsistent")
	}
	// The heuristic must capture at least the dominant entry per row.
	if mp[0] != 0 {
		t.Errorf("partition 0 (S=872 for proc 0) mapped to %d", mp[0])
	}
}

func TestOptimalBeatsOrMatchesHeuristic(t *testing.T) {
	s := paperLikeMatrix()
	_, hObj := s.Heuristic()
	mpO, oObj := s.Optimal()
	if err := s.Validate(mpO); err != nil {
		t.Fatal(err)
	}
	if oObj < hObj {
		t.Errorf("optimal %d < heuristic %d", oObj, hObj)
	}
}

func TestOptimalIsOptimalBruteForce(t *testing.T) {
	// P=3, F=1: brute-force all 6 permutations.
	s := FromDense(1, [][]int64{{10, 2, 7}, {4, 8, 1}, {6, 5, 9}})
	_, got := s.Optimal()
	best := int64(-1)
	perms := [][]int32{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, pm := range perms {
		mp := Mapping(pm)
		if obj := s.Objective(mp); obj > best {
			best = obj
		}
	}
	if got != best {
		t.Errorf("Optimal = %d, brute force = %d", got, best)
	}
}

func TestOptimalBruteForceF2(t *testing.T) {
	// P=2, F=2: enumerate all ways to pick 2 of 4 columns for proc 0.
	s := FromDense(2, [][]int64{{9, 1, 5, 3}, {2, 8, 4, 7}})
	_, got := s.Optimal()
	best := int64(-1)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			mp := Mapping{1, 1, 1, 1}
			mp[a], mp[b] = 0, 0
			if obj := s.Objective(mp); obj > best {
				best = obj
			}
		}
	}
	if got != best {
		t.Errorf("Optimal = %d, brute force = %d", got, best)
	}
}

func TestHeuristicHalfApproximation(t *testing.T) {
	// Property: over random matrices the greedy mark-and-map objective
	// stays within the matching greedy bound 𝒥_h ≥ 𝒥_opt/2 (the basis of
	// the paper's "never more than twice the optimal movement" claim).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		p := 2 + rng.Intn(6)
		f := 1 + rng.Intn(3)
		rows := make([][]int64, p)
		for i := range rows {
			rows[i] = make([]int64, p*f)
			for j := range rows[i] {
				if rng.Float64() < 0.6 {
					rows[i][j] = int64(rng.Intn(1000))
				}
			}
		}
		s := FromDense(f, rows)
		mpH, hObj := s.Heuristic()
		if err := s.Validate(mpH); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, oObj := s.Optimal()
		if oObj < hObj {
			t.Fatalf("trial %d: optimal %d < heuristic %d", trial, oObj, hObj)
		}
		if 2*hObj < oObj {
			t.Errorf("trial %d: heuristic %d below half of optimal %d", trial, hObj, oObj)
		}
	}
}

func TestMoveStats(t *testing.T) {
	// 2 procs, F=1: identity mapping moves the off-diagonal weight.
	s := FromDense(1, [][]int64{{10, 4}, {3, 20}})
	mp := Mapping{0, 1}
	c, n := s.MoveStats(mp)
	if c != 7 {
		t.Errorf("C = %d, want 7", c)
	}
	if n != 2 {
		t.Errorf("N = %d, want 2", n)
	}
	// C + objective = total.
	if c+s.Objective(mp) != s.Total() {
		t.Error("C != ΣS − 𝒥")
	}
}

func TestMoveStatsCombinesDestinations(t *testing.T) {
	// The paper's Fig. 7 point: two partitions mapped to the same
	// destination from one source count as one set.
	// Processor 0 holds weight destined for partitions 2 and 3, both of
	// which map to processor 1.
	s := FromDense(2, [][]int64{{0, 0, 5, 6}, {1, 1}})
	mp := Mapping{0, 0, 1, 1}
	if err := s.Validate(mp); err != nil {
		t.Fatal(err)
	}
	c, n := s.MoveStats(mp)
	if c != 13 {
		t.Errorf("C = %d, want 13", c)
	}
	// Four (source partition → destination) flows collapse into two
	// (source processor → destination processor) sets.
	if n != 2 {
		t.Errorf("N = %d, want 2 (sets combined per destination)", n)
	}
}

func TestZeroMoveForCongruentPartitioning(t *testing.T) {
	// If the new partitions coincide with the old distribution, the
	// optimal mapping moves nothing.
	s := FromDense(1, [][]int64{{100}, {0, 100}, {0, 0, 100}, {0, 0, 0, 100}})
	mp, obj := s.Optimal()
	if obj != 400 {
		t.Errorf("objective = %d, want 400", obj)
	}
	c, n := s.MoveStats(mp)
	if c != 0 || n != 0 {
		t.Errorf("C,N = %d,%d, want 0,0", c, n)
	}
}

func TestValidateRejects(t *testing.T) {
	s := FromDense(1, make([][]int64, 2))
	if err := s.Validate(Mapping{0}); err == nil {
		t.Error("short mapping accepted")
	}
	if err := s.Validate(Mapping{0, 0}); err == nil {
		t.Error("doubled processor accepted")
	}
	if err := s.Validate(Mapping{0, 5}); err == nil {
		t.Error("out-of-range processor accepted")
	}
}

func TestCostModel(t *testing.T) {
	c, mdl := DefaultSP2(), machine.SP2()
	gain := c.Gain(1000, 600)
	if gain <= 0 {
		t.Error("gain must be positive for reduced Wmax")
	}
	cost := mdl.RedistCost(10000, 12)
	if cost <= 0 {
		t.Error("cost must be positive")
	}
	// A tiny imbalance improvement must not justify moving everything.
	if c.Gain(1000, 999) > mdl.RedistCost(1<<40, 1000) {
		t.Error("a hugely expensive remap costs less than a negligible gain")
	}
	// A big improvement with tiny movement must be accepted.
	if c.Gain(100000, 1000) <= mdl.RedistCost(10, 1) {
		t.Error("an obviously good remap costs more than its gain")
	}
	if c.SolverTime(2000) != c.Titer*float64(c.Nadapt)*2000 {
		t.Error("SolverTime formula")
	}
}

func TestHeuristicMuchFasterThanOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Shape check for Fig. 10a at moderate size: heuristic should be at
	// least an order of magnitude faster than Hungarian at P=32, F=4.
	p, f := 32, 4
	rng := rand.New(rand.NewSource(5))
	rows := make([][]int64, p)
	for i := range rows {
		rows[i] = make([]int64, p*f)
		for j := range rows[i] {
			rows[i][j] = int64(rng.Intn(5000))
		}
	}
	s := FromDense(f, rows)
	tH := benchIt(func() { s.Heuristic() })
	tO := benchIt(func() { s.Optimal() })
	if tO < 10*tH {
		t.Errorf("optimal %v not ≫ heuristic %v", tO, tH)
	}
}

func benchIt(f func()) int64 {
	// Median-ish of 3 runs, in ns.
	best := int64(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := nano()
		f()
		if d := nano() - t0; d < best {
			best = d
		}
	}
	return best
}

func nano() int64 { return time.Now().UnixNano() }

// dense expands s into the P×(P·F) matrix it stands for.
func dense(s *Similarity) [][]int64 {
	rows := make([][]int64, s.P)
	for i := range rows {
		rows[i] = make([]int64, s.Cols())
		for j := range rows[i] {
			rows[i][j] = s.At(i, j)
		}
	}
	return rows
}

// denseHeuristic is the mapper this package shipped before the similarity
// matrix went sparse — a full P×(P·F) sweep every mark-and-map round —
// kept as the oracle the sparse Heuristic must reproduce bit for bit. It
// returns the mapping, the sweep's operation count and the rounds taken.
func denseHeuristic(S [][]int64, p, f int) (mp Mapping, ops int64, rounds int) {
	cols := p * f
	mp = make(Mapping, cols)
	for j := range mp {
		mp[j] = -1
	}
	unmapped := make([]int, p) // partitions still needed per processor
	for i := range unmapped {
		unmapped[i] = f
	}
	remaining := cols

	// marks[j] collects the processors that marked column j this round.
	marks := make([][]int32, cols)
	best := make([]markCand, 0, f) // markLargest's top-list scratch
	for remaining > 0 {
		rounds++
		ops += int64(p * cols) // one mark+map sweep over the matrix
		for j := range marks {
			marks[j] = marks[j][:0]
		}
		// Mark phase: processor i marks its unmapped[i] largest
		// unassigned entries.
		for i := 0; i < p; i++ {
			need := unmapped[i]
			if need == 0 {
				continue
			}
			markLargest(S[i], mp, need, int32(i), marks, best)
		}
		// Map phase: each marked unassigned column goes to the largest
		// marked entry.
		assigned := 0
		for j := 0; j < cols; j++ {
			if mp[j] >= 0 || len(marks[j]) == 0 {
				continue
			}
			best := marks[j][0]
			for _, i := range marks[j][1:] {
				if S[i][j] > S[best][j] {
					best = i
				}
			}
			mp[j] = best
			unmapped[best]--
			assigned++
		}
		remaining -= assigned
		if assigned == 0 {
			panic("dense oracle made no progress")
		}
	}
	return mp, ops, rounds
}

// markCand is one entry of markLargest's running top list: column j with
// similarity w.
type markCand struct {
	j int
	w int64
}

// markLargest records processor i's marks on the `need` largest entries of
// row among unassigned columns (ties resolved toward lower column
// numbers). best is the caller's scratch for the running top list, with
// room for need entries.
func markLargest(row []int64, mp Mapping, need int, i int32, marks [][]int32, best []markCand) {
	best = best[:0]
	for j, w := range row {
		if mp[j] >= 0 || (len(best) == need && w <= best[need-1].w) {
			continue // assigned, or not above the full list's smallest entry
		}
		// Insert into the running top-`need` list.
		pos := len(best)
		for pos > 0 && best[pos-1].w < w {
			pos--
		}
		if len(best) < need {
			best = append(best, markCand{})
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = markCand{j, w}
	}
	for _, c := range best {
		marks[c.j] = append(marks[c.j], i)
	}
}

// randomSimilarity draws a sparse similarity matrix the way the balancer
// produces one — through Build, from per-vertex (old owner, new part,
// weight) triples — with the shapes that stress the sparse mapper: about
// nnzPerRow nonzeros a row, all-zero rows (processors that own nothing),
// all-zero columns (parts nothing lands in), weights from a tiny alphabet
// so ties are everywhere, and vertices whose owner crashed (oldProc < 0).
func randomSimilarity(rng *rand.Rand, p, f, nnzPerRow int) *Similarity {
	cols := p * f
	emptyRow := make([]bool, p)
	for i := range emptyRow {
		emptyRow[i] = rng.Intn(5) == 0
	}
	var liveCols []int32
	for j := 0; j < cols; j++ {
		if rng.Intn(6) != 0 {
			liveCols = append(liveCols, int32(j))
		}
	}
	if len(liveCols) == 0 {
		liveCols = []int32{0}
	}
	maxW := int64(1)
	if rng.Intn(2) == 0 {
		maxW = 1 + int64(rng.Intn(40))
	}
	n := p * nnzPerRow * 2
	oldProc := make([]int32, n)
	newPart := make([]int32, n)
	wremap := make([]int64, n)
	for v := range oldProc {
		oldProc[v] = int32(rng.Intn(p+1)) - 1 // −1: the owner crashed
		if oldProc[v] >= 0 && emptyRow[oldProc[v]] {
			oldProc[v] = -1
		}
		// Most of a processor's weight stays near its own parts, some
		// lands anywhere.
		if c := int(oldProc[v])*f + rng.Intn(2*f+1) - f; oldProc[v] >= 0 && rng.Intn(4) != 0 && c >= 0 && c < cols {
			newPart[v] = int32(c)
		} else {
			newPart[v] = liveCols[rng.Intn(len(liveCols))]
		}
		wremap[v] = 1 + rng.Int63n(maxW)
	}
	return Build(oldProc, newPart, wremap, p, f)
}

// checkAgainstDense demands that the sparse mapper reproduce the dense
// oracle on s — mapping, objective and movement statistics — and never
// count more work than the oracle's sweep.
func checkAgainstDense(t *testing.T, s *Similarity) {
	t.Helper()
	S := dense(s)
	want, denseOps, rounds := denseHeuristic(S, s.P, s.F)
	got, obj := s.Heuristic()
	if !slices.Equal(got, want) {
		t.Fatalf("P=%d F=%d: mapping diverges from the dense oracle\n got %v\nwant %v\nS = %v", s.P, s.F, got, want, S)
	}
	if err := s.Validate(got); err != nil {
		t.Fatal(err)
	}
	var wantObj, wantC int64
	pairs := map[[2]int32]bool{}
	for i := range S {
		for j, w := range S[i] {
			if int(want[j]) == i {
				wantObj += w
			} else if w != 0 {
				wantC += w
				pairs[[2]int32{int32(i), want[j]}] = true
			}
		}
	}
	if obj != wantObj || s.Objective(got) != wantObj {
		t.Errorf("P=%d F=%d: objective %d (Objective() %d), dense %d", s.P, s.F, obj, s.Objective(got), wantObj)
	}
	if c, n := s.MoveStats(got); c != wantC || n != len(pairs) || c+obj != s.Total() {
		t.Errorf("P=%d F=%d: MoveStats = (%d, %d), dense (%d, %d); total %d", s.P, s.F, c, n, wantC, len(pairs), s.Total())
	}
	if s.LastOps > denseOps {
		t.Errorf("P=%d F=%d: LastOps %d above the dense sweep's %d (%d rounds)", s.P, s.F, s.LastOps, denseOps, rounds)
	}
}

func TestHeuristicMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2048))
	for p := 1; p <= 96; p++ {
		for f := 1; f <= 3; f++ {
			checkAgainstDense(t, randomSimilarity(rng, p, f, 1+rng.Intn(6)))
		}
	}
	// Degenerate shapes: nothing anywhere, one full row, one full column,
	// every weight equal.
	checkAgainstDense(t, FromDense(2, make([][]int64, 5)))
	checkAgainstDense(t, FromDense(1, [][]int64{{3, 3, 3, 3}, nil, nil, nil}))
	checkAgainstDense(t, FromDense(1, [][]int64{{0, 7}, {0, 7}, {0, 7}, {0, 7}}))
	checkAgainstDense(t, FromDense(2, [][]int64{{1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1}}))
	checkAgainstDense(t, paperLikeMatrix())
}

func FuzzHeuristic(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(7), uint8(16), uint8(2), uint8(3))
	f.Add(int64(99), uint8(96), uint8(3), uint8(6))
	f.Add(int64(4), uint8(64), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, p, fgran, nnz uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkAgainstDense(t, randomSimilarity(rng, 1+int(p)%96, 1+int(fgran)%3, int(nnz)%8))
	})
}

// TestHeuristicOpsSparse pins the mapper's work to the nonzeros: at
// P = 2048 with about four nonzeros a row — the shape on which the dense
// sweep counted 10 G operations — the rounds examine under 10 M entries.
func TestHeuristicOpsSparse(t *testing.T) {
	s := randomSimilarity(rand.New(rand.NewSource(3)), 2048, 1, 4)
	mp, _ := s.Heuristic()
	if err := s.Validate(mp); err != nil {
		t.Fatal(err)
	}
	if nnz := len(s.ents); nnz < 4096 || nnz > 4*4096 {
		t.Fatalf("fixture has %d nonzeros, want about 4 a row", nnz)
	}
	if s.LastOps >= 10_000_000 {
		t.Errorf("LastOps = %d at P=2048, want under 10 M", s.LastOps)
	}
}
