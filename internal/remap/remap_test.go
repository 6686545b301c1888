package remap

import (
	"math/rand"
	"testing"
	"time"
)

// paperLikeMatrix builds a P=4, F=2 similarity matrix in the spirit of the
// paper's Fig. 5 worked example (the figure's exact values are not
// recoverable from the scanned text, so the example is reconstructed with
// the same shape: a few dominant diagonal-ish entries plus scattered
// weight).
func paperLikeMatrix() *Similarity {
	s := NewSimilarity(4, 2)
	rows := [][]int64{
		{872, 45, 0, 0, 120, 0, 0, 310},
		{0, 650, 200, 0, 0, 98, 0, 0},
		{55, 0, 720, 430, 0, 0, 160, 0},
		{0, 0, 0, 90, 500, 305, 410, 76},
	}
	for i, r := range rows {
		copy(s.S[i], r)
	}
	return s
}

func TestSimilarityBuild(t *testing.T) {
	oldProc := []int32{0, 0, 1, 1}
	newPart := []int32{0, 1, 1, 1}
	wremap := []int64{5, 7, 11, 13}
	s := Build(oldProc, newPart, wremap, 2, 1)
	if s.S[0][0] != 5 || s.S[0][1] != 7 || s.S[1][1] != 24 {
		t.Errorf("S = %v", s.S)
	}
	if s.Total() != 36 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestIdentityMapping(t *testing.T) {
	// Partitions {i·F … i·F+F-1} on processor i: every processor gets
	// exactly F, so the mapping must validate.
	s := NewSimilarity(3, 2)
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
	s := NewSimilarity(3, 1)
	vals := [][]int64{{10, 2, 7}, {4, 8, 1}, {6, 5, 9}}
	for i := range vals {
		copy(s.S[i], vals[i])
	}
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
	s := NewSimilarity(2, 2)
	vals := [][]int64{{9, 1, 5, 3}, {2, 8, 4, 7}}
	for i := range vals {
		copy(s.S[i], vals[i])
	}
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
		s := NewSimilarity(p, f)
		for i := 0; i < p; i++ {
			for j := 0; j < p*f; j++ {
				if rng.Float64() < 0.6 {
					s.S[i][j] = int64(rng.Intn(1000))
				}
			}
		}
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
	s := NewSimilarity(2, 1)
	s.S[0][0], s.S[0][1] = 10, 4
	s.S[1][0], s.S[1][1] = 3, 20
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
	s := NewSimilarity(2, 2)
	// Processor 0 holds weight destined for partitions 2 and 3, both of
	// which map to processor 1.
	s.S[0][2], s.S[0][3] = 5, 6
	s.S[1][0], s.S[1][1] = 1, 1
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
	s := NewSimilarity(4, 1)
	for i := 0; i < 4; i++ {
		s.S[i][i] = 100
	}
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
	s := NewSimilarity(2, 1)
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
	c := DefaultSP2()
	gain := c.Gain(1000, 600)
	if gain <= 0 {
		t.Error("gain must be positive for reduced Wmax")
	}
	cost := c.RedistCost(10000, 12)
	if cost <= 0 {
		t.Error("cost must be positive")
	}
	// A tiny imbalance improvement must not justify moving everything.
	if c.Gain(1000, 999) > c.RedistCost(1<<40, 1000) {
		t.Error("a hugely expensive remap costs less than a negligible gain")
	}
	// A big improvement with tiny movement must be accepted.
	if c.Gain(100000, 1000) <= c.RedistCost(10, 1) {
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
	s := NewSimilarity(p, f)
	for i := 0; i < p; i++ {
		for j := 0; j < p*f; j++ {
			s.S[i][j] = int64(rng.Intn(5000))
		}
	}
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
