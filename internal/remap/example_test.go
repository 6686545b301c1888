package remap_test

import (
	"fmt"

	"plum/internal/machine"
	"plum/internal/remap"
)

// Example walks through the processor-reassignment pipeline on a tiny
// similarity matrix: heuristic mapping, objective, and movement cost.
func Example() {
	// Two processors, F=1. Most of processor 0's data lands in new
	// partition 1 and vice versa: the identity mapping would move almost
	// everything, the similarity-driven mapping almost nothing.
	// Four vertices, each given by its old processor, new partition and weight.
	s := remap.Build([]int32{0, 0, 1, 1}, []int32{0, 1, 0, 1}, []int64{10, 90, 80, 20}, 2, 1)

	mp, obj, _ := s.Heuristic()
	flows, c := s.MoveStats(mp)
	fmt.Printf("mapping=%v objective=%d moved=%d sets=%d\n", mp, obj, c, len(flows))

	cID := remap.Mapping{0, 1}
	_, cBad := s.MoveStats(cID)
	fmt.Printf("identity mapping would move %d\n", cBad)

	// Output:
	// mapping=[1 0] objective=170 moved=30 sets=2
	// identity mapping would move 170
}

// ExampleCostModel shows the paper's gain/cost acceptance rule: the gain
// from the solver constants, the redistribution cost from the machine.
func ExampleCostModel() {
	cost, mdl := remap.DefaultSP2(), machine.SP2()
	// Balancing drops the heaviest processor from 8000 to 1000 elements;
	// the remap moves 50,000 elements in 12 sets.
	fmt.Println("worthwhile:", cost.Gain(8000, 1000) > mdl.RedistCost(50000, 12))
	// A negligible improvement never justifies moving everything.
	fmt.Println("worthwhile:", cost.Gain(1010, 1000) > mdl.RedistCost(50000, 12))
	// Output:
	// worthwhile: true
	// worthwhile: false
}
