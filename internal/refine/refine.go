// Package refine holds only the inert refiner the benchmark still calls.
// Partition refinement lives in package partition: multilevel runs its
// boundary FM, and the curve methods run nothing after their exact cut.
package refine

import (
	"plum/internal/dual"
	"plum/internal/machine"
)

// Inert is the refiner Default returns: it refines nothing.
//
// Deprecated: it goes with Default.
type Inert struct{}

// Refine leaves asg untouched and returns no ops.
//
// Deprecated: it goes with Default.
func (Inert) Refine(g *dual.Graph, asg []int32, k, passes int) machine.Ops {
	return machine.Ops{}
}

// Default returns a refiner that does nothing. No partitioner calls
// anything after the curve cut.
//
// Deprecated: it goes, with both ignored arguments, when the benchmark
// stops calling it.
func Default(n, workers int) Inert {
	return Inert{}
}
