package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/geom"
	"plum/internal/meshgen"
)

// ExtensionPoint is one cycle of the repeated-adaption extension run.
type ExtensionPoint struct {
	Cycle int
	// Elems is the mesh size after the cycle's adaption.
	Elems int
	// ImbBalanced and ImbUnbalanced are the post-cycle Wmax/Wavg with and
	// without the load balancer.
	ImbBalanced, ImbUnbalanced float64
	// CumBalanced and CumUnbalanced accumulate modeled solver seconds.
	CumBalanced, CumUnbalanced float64
}

// Extension holds the repeated-adaption study: the paper closes with the
// conjecture that "with multiple mesh adaptions, the gains realized with
// load balancing may be even more significant" — Fig. 12 measures a single
// refinement step only. This experiment moves a refinement front across
// the domain for several cycles and accumulates solver time with and
// without the balancer.
type Extension struct {
	P      int
	Points []ExtensionPoint
}

// RunExtensionRepeated runs the repeated-adaption study on P processors: a
// spherical feature sweeps through a box mesh; each cycle refines around
// the feature and coarsens everything it left behind. The balanced run
// repartitions/remap per the framework rules; the unbalanced run keeps the
// initial partitions forever. seed is both runs' Config.Seed, which seeds
// the partitioner (the initial partition included); the exhibit uses 1.
func RunExtensionRepeated(p, cycles int, seed int64) *Extension {
	mkFW := func(threshold float64) (*core.Framework, *geom.Sphere) {
		m := meshgen.Box(12, 12, 12, geom.Vec3{X: 3, Y: 1, Z: 1})
		cfg := core.DefaultConfig(p)
		cfg.Seed = seed
		cfg.ImbalanceThreshold = threshold
		fw, err := core.New(m, nil, cfg)
		if err != nil {
			panic(err)
		}
		return fw, &geom.Sphere{Center: geom.Vec3{X: 0.25, Y: 0.5, Z: 0.5}, Radius: 0.45}
	}
	balanced, sB := mkFW(1.2)
	unbalanced, sU := mkFW(math.Inf(1)) // never repartitions

	out := &Extension{P: p}
	var cumB, cumU float64
	for c := 1; c <= cycles; c++ {
		step := func(fw *core.Framework, sp *geom.Sphere) (float64, int) {
			// Coarsen the wake, refine around the new front position.
			fw.A.MarkRegion(geom.AABB{
				Min: geom.Vec3{},
				Max: geom.Vec3{X: sp.Center.X - 0.4, Y: 1, Z: 1},
			}, adapt.MarkCoarsen)
			fw.D.ParallelCoarsen(fw.A, fw.Cfg.Model)
			if _, err := fw.Cycle(func(a *adapt.Adaptor) {
				a.MarkRegion(*sp, adapt.MarkRefine)
			}); err != nil {
				panic(err)
			}
			sp.Center.X += 2.0 / float64(cycles)
			imb, _ := fw.Evaluate()
			return imb, fw.M.NumActiveElems()
		}
		imbB, elems := step(balanced, sB)
		imbU, _ := step(unbalanced, sU)

		// Solver time until the next adaption, at the post-cycle loads.
		cumB += balanced.Cfg.Cost.SolverTime(slices.Max(balanced.Loads()))
		cumU += unbalanced.Cfg.Cost.SolverTime(slices.Max(unbalanced.Loads()))
		out.Points = append(out.Points, ExtensionPoint{
			Cycle: c, Elems: elems,
			ImbBalanced: imbB, ImbUnbalanced: imbU,
			CumBalanced: cumB, CumUnbalanced: cumU,
		})
	}
	return out
}

// Gain returns the cumulative solver-time ratio unbalanced / balanced up
// to this cycle.
func (pt ExtensionPoint) Gain() float64 {
	if pt.CumBalanced == 0 {
		return 1
	}
	return pt.CumUnbalanced / pt.CumBalanced
}

// String renders the study.
func (e *Extension) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: repeated adaption with a moving front (P=%d)\n", e.P)
	fmt.Fprintf(&b, "%6s%9s%14s%14s%16s%16s%10s\n",
		"cycle", "elems", "imb(bal)", "imb(unbal)", "cum bal (s)", "cum unbal (s)", "gain")
	for _, pt := range e.Points {
		fmt.Fprintf(&b, "%6d%9d%14.2f%14.2f%16.4g%16.4g%10.2f\n",
			pt.Cycle, pt.Elems, pt.ImbBalanced, pt.ImbUnbalanced,
			pt.CumBalanced, pt.CumUnbalanced, pt.Gain())
	}
	return b.String()
}
