// Quickstart: the smallest complete tour of the library — build a mesh,
// refine a region, watch the load imbalance appear, and let the framework
// repartition, reassign, and remap it away.
package main

import (
	"fmt"
	"log"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/geom"
	"plum/internal/meshgen"
)

func main() {
	// An 8×8×8 box of tetrahedra (3,072 elements) on 8 processors.
	m := meshgen.Box(8, 8, 8, geom.Vec3{X: 1, Y: 1, Z: 1})
	fw, err := core.New(m, nil, core.DefaultConfig(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("initial:", m.Stats())

	// Refine a corner twice — the classic way to unbalance a partition.
	corner := geom.Sphere{Center: geom.Vec3{}, Radius: 0.5}
	rep, err := fw.Cycle(func(a *adapt.Adaptor) { a.MarkRegion(corner, adapt.MarkRefine) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after adaption: %s\n", m.Stats())
	fmt.Printf("imbalance Wmax/Wavg: %.2f\n", rep.Balance.ImbalanceBefore)

	if rep.Balance.Accepted {
		fmt.Printf("rebalanced to %.2f by moving %d elements in %d sets\n",
			rep.Balance.ImbalanceAfter, rep.Balance.MoveC, rep.Balance.MoveN)
		fmt.Printf("decision: gain %.3gs > cost %.3gs on the SP2 model\n",
			rep.Balance.Gain, rep.Balance.Cost)
	} else if rep.Balance.Repartitioned {
		fmt.Println("repartitioning computed but the remap was not worth its cost")
	} else {
		fmt.Println("load already balanced; nothing to do")
	}

	// Coarsening restores the initial mesh exactly, and the distributed
	// pass compacts what it removed: the slabs are the initial mesh's again.
	fw.A.MarkRegion(geom.All{}, adapt.MarkCoarsen)
	fw.D.ParallelCoarsen(fw.A, fw.Cfg.Model)
	fmt.Printf("after full coarsening: %s in %d element slots\n", m.Stats(), len(m.Elems))
}
