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
// worklist replay's.
func FuzzPropagate(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(4))
	f.Add(uint64(42), uint8(35), uint8(8))
	f.Add(uint64(0xdeadbeef), uint8(70), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, markFrac, ranks uint8) {
		p := 2 + int(ranks)%15
		n := 2048 + int(seed%1024)
		base, frontier := newHyperWorld(n, p, seed, uint64(markFrac)%100)

		refWorld := base.clone()
		serialFixpoint(refWorld, frontier)

		w := base.clone()
		propagate.Engine{}.Run(w, slices.Clone(frontier), machine.NewClock(p), machine.SP2())
		if !reflect.DeepEqual(w.marked, refWorld.marked) {
			t.Fatal("mark set diverges from serial replay")
		}
	})
}
