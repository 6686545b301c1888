package experiments

import (
	"reflect"
	"strings"
	"testing"

	"plum/internal/core"
)

// outcomeCounts tallies the row's outcomes by kind.
func (r *FaultRow) outcomeCounts() (committed, retried, rolledBack, degraded int) {
	for _, o := range r.Outcomes {
		switch o {
		case core.OutcomeCommitted:
			committed++
		case core.OutcomeRetriedCommitted:
			retried++
		case core.OutcomeRolledBack:
			rolledBack++
		case core.OutcomeDegraded:
			degraded++
		}
	}
	return
}

// TestFaultTableClaims verifies the sweep's robustness story: zero-rate
// rows are all-committed with zero retry traffic, faulted rows with
// budget recover or degrade gracefully (never a third state), a generous
// budget beats a zero budget, and a different seed draws a different
// schedule.
func TestFaultTableClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep (CI pins the sweep's determinism via cmd/experiments)")
	}
	const seed = 7
	tb := RunFaultTable(seed)
	cell := map[[2]int]FaultRow{}
	for _, r := range tb.Rows {
		cell[[2]int{int(r.Rate * 100), r.Budget}] = r
	}

	var sawRecovered, sawDegraded bool
	for _, r := range tb.Rows {
		committed, retried, rolledBack, degraded := r.outcomeCounts()
		if committed+retried+rolledBack+degraded != faultCycles {
			t.Fatalf("rate %.2f budget %d: unclassified cycles: %+v", r.Rate, r.Budget, r.Outcomes)
		}
		if r.Rate == 0 {
			if committed != faultCycles || r.MsgRetries != 0 || r.AdaptRetries != 0 || r.RetryTime != 0 {
				t.Errorf("zero-rate row left a retry trace: %+v", r)
			}
			continue
		}
		if retried == faultCycles && r.MsgRetries > 0 {
			sawRecovered = true
		}
		if degraded > 0 {
			sawDegraded = true
			if rolledBack == 0 {
				t.Errorf("rate %.2f budget %d: degraded without a first rollback: %+v",
					r.Rate, r.Budget, r.Outcomes)
			}
		}
	}
	if !sawRecovered {
		t.Error("no cell recovered through retries")
	}
	if !sawDegraded {
		t.Error("no cell degraded — the sweep axes no longer stress the budget")
	}

	// A bigger budget never does worse than none at the same rate: the
	// final imbalance of the budget-3 cell is at most the budget-0 one's.
	for _, rate := range faultRates {
		if rate == 0 {
			continue
		}
		none, some := cell[[2]int{int(rate * 100), 0}], cell[[2]int{int(rate * 100), 3}]
		if some.FinalImbalance > none.FinalImbalance {
			t.Errorf("rate %.2f: budget 3 ends worse than budget 0: %.3f vs %.3f",
				rate, some.FinalImbalance, none.FinalImbalance)
		}
	}

	// A different seed draws a different schedule.
	other := RunFaultTable(seed + 35)
	if reflect.DeepEqual(tb.Rows, other.Rows) {
		t.Error("two fault seeds produced identical sweeps")
	}

	if !strings.Contains(tb.String(), "DEGRADED") {
		t.Error("rendered table hides the degraded cells")
	}
}
