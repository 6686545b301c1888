// Shock: an unsteady computation with a travelling planar shock — the
// workload that motivates *dynamic* load balancing. The refined band must
// follow the front: each cycle refines ahead of the shock and coarsens
// behind it, so the load distribution keeps shifting and the balancer is
// exercised repeatedly (the paper: "with repeated adaption, the gains
// realized with load balancing may be even more significant"). The
// distributed coarsening pass compacts the mesh, so the element slots
// printed each step follow what is alive instead of every element the
// run ever made.
package main

import (
	"fmt"
	"log"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/solver"
)

func main() {
	m := meshgen.Box(10, 10, 10, geom.Vec3{X: 4, Y: 1, Z: 1})
	front := 0.5
	sol := solver.New(m, solver.PlanarShock(front, 0.08))

	cfg := core.DefaultConfig(8)
	fw, err := core.New(m, sol, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shock tube: %s, P=%d\n", m.Stats(), cfg.P)

	var accepted, rejected int
	for step := 1; step <= 6; step++ {
		// Advance the front and rebuild the solution around it (the
		// proxy for time integration).
		front += 0.5
		x0 := front
		for i := range m.Verts {
			if !m.Verts[i].Dead {
				sol.U[i] = solver.PlanarShock(x0, 0.08)(m.Verts[i].Pos)
			}
		}

		rep, err := fw.Cycle(func(a *adapt.Adaptor) {
			errv := sol.EdgeError()
			hi := 0.0
			for _, e := range errv {
				if e > hi {
					hi = e
				}
			}
			a.MarkError(errv, 0.3*hi, 0.01*hi)
		})
		if err != nil {
			log.Fatal(err)
		}
		// Coarsen the wake the front left behind.
		wake := geom.AABB{Min: geom.Vec3{X: 0}, Max: geom.Vec3{X: x0 - 0.6, Y: 1, Z: 1}}
		fw.A.MarkRegion(wake, adapt.MarkCoarsen)
		fw.D.ParallelCoarsen(fw.A, fw.Cfg.Model)
		fw.S.SyncAfterAdaption() // the field follows the renumbered vertices

		b := rep.Balance
		state := "balanced"
		switch {
		case b.Accepted:
			state = fmt.Sprintf("remapped %d elems", b.MoveC)
			accepted++
		case b.Repartitioned:
			state = "remap rejected"
			rejected++
		}
		fmt.Printf("step %d: front at x=%.1f, %6d elems in %6d slots, imbalance %.2f (%s)\n",
			step, x0, m.NumActiveElems(), len(m.Elems), b.ImbalanceBefore, state)
	}
	fmt.Printf("summary: %d remaps accepted, %d rejected by the gain/cost rule\n", accepted, rejected)
	if err := m.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("mesh invariants: OK")
}
