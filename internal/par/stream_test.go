package par

import (
	"testing"

	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// windowsOf returns the adaptive window plan of the remap from d's owners
// to newOwner.
func windowsOf(d *Dist, newOwner []int32) []remapWindow {
	flows := countFlows(d.M, d.owner, newOwner, d.P)
	flowStart := make([]int64, len(flows)+1)
	for f, fl := range flows {
		flowStart[f+1] = flowStart[f] + fl.Elems
	}
	return planWindows(flowStart, windowBudget(flowStart))
}

// smallBoxRemap distributes the 384-element SmallBox over p ranks by
// the Hilbert curve cut, plus a reassignment that moves every other tree to
// the next rank.
func smallBoxRemap(p int) (*Dist, []int32) {
	m := meshgen.SmallBox()
	g := dual.Build(m)
	d := NewDist(m, p, partition.Partition(g, p, partition.MethodHilbertSFC))
	newOwner := d.Owners()
	for v := range newOwner {
		if v%2 == 0 {
			newOwner[v] = (newOwner[v] + 1) % int32(p)
		}
	}
	return d, newOwner
}

// TestAdaptivePlanHasWindows holds the fixtures of the fault tests to
// more than one window under the adaptive budget, so their faults land
// on window retries and on windows past the first, not on one bulk
// exchange.
func TestAdaptivePlanHasWindows(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*Dist, []int32)
	}{
		{"bigFixture p=4", func() (*Dist, []int32) { return bigFixture(t, 4) }},
		{"bigFixture p=8", func() (*Dist, []int32) { return bigFixture(t, 8) }},
		{"SmallBox p=4", func() (*Dist, []int32) { return smallBoxRemap(4) }},
	} {
		if n := len(windowsOf(c.build())); n < 2 {
			t.Errorf("%s: adaptive plan has %d window(s), want more than one", c.name, n)
		}
	}
}

// TestStreamingSerialFallback pins streaming on a small mesh: a
// multi-flow remap of 384 elements still streams below its whole payload.
func TestStreamingSerialFallback(t *testing.T) {
	m := meshgen.SmallBox()
	g := dual.Build(m)
	d := NewDist(m, 4, partition.Partition(g, 4, partition.MethodHilbertSFC))
	newOwner := d.Owners()
	for v := range newOwner {
		newOwner[v] = (newOwner[v] + 1) % 4
	}
	res, err := d.ExecuteRemap(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sets < 2 || res.PeakWords >= res.Moved*recWords {
		t.Errorf("%d-flow peak %d not below total %d", res.Sets, res.PeakWords, res.Moved*recWords)
	}
}
