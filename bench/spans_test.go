package main

import (
	"slices"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "cycle", Start: 0, End: 100, Parent: -1},  // 0
		{Name: "a", Start: 10, End: 30, Parent: 0},       // 1: overlaps b
		{Name: "b", Start: 20, End: 50, Parent: 0},       // 2
		{Name: "a.inner", Start: 12, End: 18, Parent: 1}, // 3: a grandchild of cycle
		{Name: "empty", Start: 60, End: 60, Parent: 0},   // 4: zero length
		{Name: "late", Start: 90, End: 120, Parent: 0},   // 5: runs past its parent
		{Name: "root2", Start: 200, End: 200, Parent: -1},
		{Name: "nested-same", Start: 20, End: 50, Parent: 2}, // 7: covers b entirely
	}
	want := []int64{
		100 - (40 + 10), // a ∪ b = [10,50], late clipped to [90,100]; the grandchild is a's business
		20 - 6,
		0,
		6,
		0,
		30,
		0,
		30,
	}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	ran := false
	r.timed("x", r.begin("p", -1, 0), 0, func() { ran = true })
	if !ran || r.total("x") != 0 {
		t.Errorf("nil recorder: ran=%v total=%v", ran, r.total("x"))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) of the same lists.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 1, 2}, [3]float64{1, 2, 4}},
		{[]float64{1, 2, 4, 8}, [3]float64{1.25, 3, 7}},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, [3]float64{1, 3, 5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
