package refine

import (
	"slices"
	"testing"

	"plum/internal/dual"
	"plum/internal/machine"
)

// TestDefaultIsInert pins the deprecated Default's contract: its Refine
// leaves the assignment byte-identical and charges nothing, on a start
// where every edge is cut, so any refiner would move vertices.
func TestDefaultIsInert(t *testing.T) {
	const n = 64
	g := &dual.Graph{N: n, Xadj: []int32{0}, Wcomp: make([]int64, n), EdgeWeight: 1}
	for v := range int32(n) {
		g.Wcomp[v] = 1
		if v > 0 {
			g.Adjncy = append(g.Adjncy, v-1)
		}
		if v < n-1 {
			g.Adjncy = append(g.Adjncy, v+1)
		}
		g.Xadj = append(g.Xadj, int32(len(g.Adjncy)))
	}
	for _, k := range []int{2, 4} {
		asg := make([]int32, n)
		for v := range asg {
			asg[v] = int32(v % k)
		}
		want := slices.Clone(asg)
		if ops := Default(g.N, 3).Refine(g, asg, k, 8); ops != (machine.Ops{}) {
			t.Errorf("k=%d: Default charged %+v", k, ops)
		}
		if !slices.Equal(asg, want) {
			t.Errorf("k=%d: Default changed the assignment", k)
		}
	}
}
