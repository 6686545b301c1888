// Remapdemo: a worked similarity-matrix example in the style of the
// paper's Figs. 5-7. It builds a small unbalanced scenario, prints the
// similarity matrix S, runs both the heuristic mark-and-map algorithm and
// the optimal Hungarian matching, and walks through the movement cost
// C = ΣS − 𝒥 and set count N that feed the gain/cost acceptance rule.
package main

import (
	"fmt"
	"log"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/remap"
)

func main() {
	const P, F = 4, 2

	// A refined corner on a small box gives a naturally skewed Wremap
	// distribution.
	m := meshgen.Box(6, 6, 6, geom.Vec3{X: 1, Y: 1, Z: 1})
	g := dual.Build(m)
	oldAsg := partition.Partition(g, P, partition.MethodInertial)
	a := adapt.New(m)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
	a.Refine()
	g.UpdateWeights(m)

	newPart := partition.Partition(g, P*F, partition.MethodInertial)
	sim := remap.Build(oldAsg, newPart, g.Wremap, P, F)

	fmt.Printf("similarity matrix S (%d processors × %d partitions):\n", P, P*F)
	for i := 0; i < P; i++ {
		fmt.Printf("  proc %d:", i)
		for j := 0; j < P*F; j++ {
			fmt.Printf("%7d", sim.At(i, j))
		}
		fmt.Println()
	}
	fmt.Printf("total remapping weight ΣS = %d\n\n", sim.Total())

	mpH, objH, opsH := sim.Heuristic()
	flH, cH := sim.MoveStats(mpH)
	nH := len(flH)
	fmt.Printf("heuristic mapping (partition -> processor): %v\n", mpH)
	fmt.Printf("  objective 𝒥 = %d, moved C = %d, sets N = %d (%d matrix ops)\n\n",
		objH, cH, nH, opsH)

	mpO, objO, opsO := sim.Optimal()
	flO, cO := sim.MoveStats(mpO)
	nO := len(flO)
	fmt.Printf("optimal mapping   (partition -> processor): %v\n", mpO)
	fmt.Printf("  objective 𝒥 = %d, moved C = %d, sets N = %d (%d matrix ops)\n\n",
		objO, cO, nO, opsO)

	fmt.Printf("heuristic is within %.2f%% of the optimal objective\n",
		100*(1-float64(objH)/float64(objO)))

	// The acceptance rule with SP2 constants.
	gain := remap.DefaultSP2().Gain(1200, 800) // example Wmax improvement
	rc := machine.SP2().RedistCost(cH, nH)
	fmt.Printf("example decision: gain %.4gs vs redistribution cost %.4gs -> accept=%v\n",
		gain, rc, gain > rc)

	if err := sim.Validate(mpH); err != nil {
		log.Fatal(err)
	}
	if err := sim.Validate(mpO); err != nil {
		log.Fatal(err)
	}
}
