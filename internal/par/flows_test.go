package par

import (
	"cmp"
	"slices"

	"plum/internal/machine"
	"plum/internal/mesh"
)

// countFlows is the element-slab oracle of a remap's flow list: it walks
// every live element of m, moves it along (owner, newOwner) of its root
// (its whole refinement tree moves with the root), and sums the elements
// per (src, dst) pair, in canonical order. The executor moves the list
// remap.Flows counts on the dual graph; countFlows is what that list must
// equal under weights fresh from m.
func countFlows(m *mesh.Mesh, owner, newOwner []int32) []machine.Flow {
	sums := map[[2]int32]int64{}
	for i := range m.Elems {
		t := &m.Elems[i]
		if src, dst := owner[t.Root], newOwner[t.Root]; !t.Dead && src != dst {
			sums[[2]int32{src, dst}]++
		}
	}
	flows := make([]machine.Flow, 0, len(sums))
	for k, n := range sums {
		flows = append(flows, machine.Flow{Src: k[0], Dst: k[1], Words: n})
	}
	slices.SortFunc(flows, func(a, b machine.Flow) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return flows
}
