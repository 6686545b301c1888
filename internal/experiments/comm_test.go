package experiments

import (
	"testing"

	"plum/internal/machine"
)

// TestCommTableOrderingAndCrossover is the PR's acceptance figure: at
// P ≥ 16384 the combined schedules beat flat on modeled setup time, with
// hierarchical < aggregated < flat wherever the node size is large enough
// — and the aggregated↔hierarchical crossover is visible in the sweep
// (each schedule wins at least one cell).
func TestCommTableOrderingAndCrossover(t *testing.T) {
	tab := RunCommTable(0)
	setup := map[[3]int]float64{}
	words := map[[2]int]int64{}
	for _, r := range tab.Rows {
		setup[[3]int{r.P, r.RPN, int(r.Exchange)}] = r.SetupTime
		key := [2]int{r.P, r.RPN}
		if w, seen := words[key]; seen && w != r.Words {
			t.Fatalf("P=%d rpn=%d: logical words differ across schedules", r.P, r.RPN)
		}
		words[key] = r.Words
	}
	aggBeats, hierBeats := 0, 0
	for key := range words {
		p, rpn := key[0], key[1]
		flat := setup[[3]int{p, rpn, int(machine.ExchangeFlat)}]
		agg := setup[[3]int{p, rpn, int(machine.ExchangeAggregated)}]
		hier := setup[[3]int{p, rpn, int(machine.ExchangeHierarchical)}]
		if p >= 16384 {
			if !(agg < flat && hier < flat) {
				t.Errorf("P=%d rpn=%d: combined schedules not below flat: agg %g hier %g flat %g",
					p, rpn, agg, hier, flat)
			}
		}
		if agg < hier {
			aggBeats++
		}
		if hier < agg {
			hierBeats++
		}
	}
	if aggBeats == 0 || hierBeats == 0 {
		t.Errorf("no aggregated↔hierarchical crossover in the sweep: agg wins %d cells, hier wins %d",
			aggBeats, hierBeats)
	}
	// The canonical crossover pair at the top of the sweep: at P=131072
	// hierarchical wins the big-node machine, aggregated the small-node one.
	if h, a := setup[[3]int{131072, 64, int(machine.ExchangeHierarchical)}],
		setup[[3]int{131072, 64, int(machine.ExchangeAggregated)}]; !(h < a) {
		t.Errorf("P=131072 rpn=64: hierarchical %g not below aggregated %g", h, a)
	}
	if h, a := setup[[3]int{131072, 16, int(machine.ExchangeHierarchical)}],
		setup[[3]int{131072, 16, int(machine.ExchangeAggregated)}]; !(a < h) {
		t.Errorf("P=131072 rpn=16: aggregated %g not below hierarchical %g", a, h)
	}
}

// TestCommTableDeterministic: the rendered table is the unit CI diffs
// byte-for-byte across GOMAXPROCS settings, so two runs must render
// identically.
func TestCommTableDeterministic(t *testing.T) {
	a := RunCommTable(0).String()
	b := RunCommTable(0).String()
	if a != b {
		t.Fatal("comm table not byte-stable across runs")
	}
	if len(a) == 0 {
		t.Fatal("empty table")
	}
}

// TestCommTableNarrowing checks the -exchange / -nodesize axes.
func TestCommTableNarrowing(t *testing.T) {
	tab := RunCommTable(32, machine.ExchangeAggregated)
	if len(tab.Rows) != len(commProcs) {
		t.Fatalf("narrowed sweep has %d rows, want %d", len(tab.Rows), len(commProcs))
	}
	for _, r := range tab.Rows {
		if r.Exchange != machine.ExchangeAggregated || r.RPN != 32 {
			t.Fatalf("narrowed sweep leaked row %+v", r)
		}
	}
}
