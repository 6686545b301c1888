// Rotor: the paper's motivating scenario — a helicopter-rotor acoustics
// computation (Purcell's UH-1H experiment as simulated by Strawn, Biswas &
// Garceau) where an acoustic feature near the blade tip demands highly
// localized refinement. Error-indicator-driven adaption concentrates
// elements around the feature, severely unbalancing the processors, and
// the global load balancer repairs it each cycle.
package main

import (
	"fmt"
	"log"
	"math"
	"slices"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/solver"
)

func main() {
	rp := meshgen.RotorParams{
		NR: 12, NTheta: 14, NZ: 12,
		R0: 0.4, R1: 2.4, Sweep: 1.25 * math.Pi, Height: 1.2,
	}
	m := meshgen.RotorDisk(rp)

	// Acoustic source at the blade-tip region: three-quarters radius,
	// mid-sweep.
	tip := geom.Vec3{
		X: 0.75 * rp.R1 * math.Cos(rp.Sweep/2),
		Y: 0.75 * rp.R1 * math.Sin(rp.Sweep/2),
	}
	sol := solver.New(m, solver.GaussianPulse(tip, 0.25))

	cfg := core.DefaultConfig(16)
	fw, err := core.New(m, sol, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rotor mesh: %s, P=%d\n", m.Stats(), cfg.P)

	for cycle := 1; cycle <= 3; cycle++ {
		rep, err := fw.Cycle(func(a *adapt.Adaptor) {
			errv := sol.EdgeError()
			hi := slices.Max(errv)
			// Refine the sharpest 'shock-like' edges; lo < 0 marks
			// nothing for coarsening, which Cycle does not run.
			a.MarkError(errv, 0.35*hi, -1)
		})
		if err != nil {
			log.Fatal(err)
		}
		b := rep.Balance
		fmt.Printf("cycle %d: %7d elems, +%d refined, imbalance %.2f",
			cycle, m.NumActiveElems(), rep.Refine.NewElems, b.ImbalanceBefore)
		if b.Accepted {
			fmt.Printf(" -> %.2f (moved %d elements)", b.ImbalanceAfter, b.Predicted.Moved)
		}
		fmt.Println()
	}

	// The finalization phase of the paper: reassemble a global mesh on
	// the host for post-processing/visualization.
	res, err := fw.D.Finalize(cfg.Model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finalized global mesh: %d elements gathered (%.3g s on the SP2 model)\n",
		res.Elems, res.Time)
	if err := m.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("mesh invariants: OK")
}
