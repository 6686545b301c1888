package propagate_test

import (
	"reflect"
	"slices"
	"testing"

	"plum/internal/machine"
	"plum/internal/propagate"
)

// FuzzPropagate fuzzes the engine over random incidence topologies, seed
// densities, and rank counts: the fixpoint mark set must equal the serial
// worklist replay's, and the whole Result (critical-path op shares
// excepted) plus the modeled clock must be invariant under chunking —
// workers=1 versus a worker count that engages the parallel rounds — for
// both backends.
func FuzzPropagate(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(4))
	f.Add(uint64(42), uint8(35), uint8(8))
	f.Add(uint64(0xdeadbeef), uint8(70), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, markFrac, ranks uint8) {
		p := 2 + int(ranks)%15
		// Large enough that a dense seed pushes the first rounds past
		// SerialCutoff, so the chunked path really runs.
		n := 2048 + int(seed%1024)
		base, frontier := newHyperWorld(n, p, seed, uint64(markFrac)%100)

		refWorld := base.clone()
		serialFixpoint(refWorld, frontier)

		for _, name := range propagate.Names {
			var ref *struct {
				res     propagate.Result
				elapsed float64
			}
			for _, workers := range []int{1, 3} {
				w := base.clone()
				clk := machine.NewClock(p)
				x, _ := propagate.ByName(name)
				res := propagate.Engine{Exchange: x, Workers: workers}.Run(w, slices.Clone(frontier), clk, machine.SP2())
				if !reflect.DeepEqual(w.marked, refWorld.marked) {
					t.Fatalf("%s workers=%d: mark set diverges from serial replay", name, workers)
				}
				if res.Ops.Crit > res.Ops.Total || res.Ops.MemCrit > res.Ops.MemTotal {
					t.Fatalf("%s workers=%d: critical path exceeds total: %+v", name, workers, res.Ops)
				}
				if workers == 1 && res.Ops.Crit != res.Ops.Total {
					t.Fatalf("%s: serial run must report Crit == Total: %+v", name, res.Ops)
				}
				norm := res
				norm.Ops.Crit, norm.Ops.MemCrit = 0, 0
				if ref == nil {
					ref = &struct {
						res     propagate.Result
						elapsed float64
					}{norm, clk.Elapsed()}
					continue
				}
				if !reflect.DeepEqual(norm, ref.res) {
					t.Fatalf("%s workers=%d: Result not chunking-invariant:\n got %+v\nwant %+v",
						name, workers, norm, ref.res)
				}
				if clk.Elapsed() != ref.elapsed {
					t.Fatalf("%s workers=%d: modeled clock not chunking-invariant: %g vs %g",
						name, workers, clk.Elapsed(), ref.elapsed)
				}
			}
		}
	})
}
