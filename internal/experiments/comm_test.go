package experiments

import (
	"testing"

	"plum/internal/machine"
)

// TestCommTableOrderingAndCrossover pins the sweep's verdict: both
// schedules move the same logical words at every P, and there is no
// crossover — aggregated beats flat on message count, summed setup time
// and elapsed time throughout, by a margin that grows with P.
func TestCommTableOrderingAndCrossover(t *testing.T) {
	rows := map[[2]int]CommRow{}
	for _, r := range RunCommTable().Rows {
		rows[[2]int{r.P, int(r.Exchange)}] = r
	}
	prev := 0.0
	for _, p := range commProcs {
		flat, agg := rows[[2]int{p, int(machine.ExchangeFlat)}], rows[[2]int{p, int(machine.ExchangeAggregated)}]
		if flat.Words == 0 || flat.Words != agg.Words {
			t.Fatalf("P=%d: logical words differ across schedules: %d vs %d", p, flat.Words, agg.Words)
		}
		if !(agg.Setups < flat.Setups && agg.SetupTime < flat.SetupTime && agg.CommTime < flat.CommTime) {
			t.Errorf("P=%d: aggregated not below flat: %+v vs %+v", p, agg, flat)
		}
		if ratio := flat.SetupTime / agg.SetupTime; ratio <= prev {
			t.Errorf("P=%d: setup saving %.3g did not grow (was %.3g)", p, ratio, prev)
		} else {
			prev = ratio
		}
	}
}

// TestCommTableDeterministic: the rendered table is the unit CI diffs
// byte-for-byte across GOMAXPROCS settings, so two runs must render
// identically.
func TestCommTableDeterministic(t *testing.T) {
	a := RunCommTable().String()
	b := RunCommTable().String()
	if a != b {
		t.Fatal("comm table not byte-stable across runs")
	}
	if len(a) == 0 {
		t.Fatal("empty table")
	}
}

// TestCommTableNarrowing checks the -exchange axis.
func TestCommTableNarrowing(t *testing.T) {
	tab := RunCommTable(machine.ExchangeAggregated)
	if len(tab.Rows) != len(commProcs) {
		t.Fatalf("narrowed sweep has %d rows, want %d", len(tab.Rows), len(commProcs))
	}
	for _, r := range tab.Rows {
		if r.Exchange != machine.ExchangeAggregated {
			t.Fatalf("narrowed sweep leaked row %+v", r)
		}
	}
}
