package par

// The window planner of the remap executor. executeRemap exchanges one
// window of flows at a time, in canonical src-major flow order, and a
// window is the unit a fault plan's retries re-exchange. The window layout
// is computed from the flow offsets alone, and the windows are charged as
// the one bulk exchange ChargeRemap prices, so of a fault-free remap's
// result only PeakWords, the largest window, depends on them.

// DefaultWindowFraction divides the total payload volume to derive the
// adaptive window budget: ExecuteRemap targets ⌈total/8⌉ record
// words per window (floored at the largest single flow, which can never
// be split), giving roughly eight windows and a peak strictly
// below the total whenever more than one flow moves.
const DefaultWindowFraction = 8

// remapWindow is one exchange unit: the contiguous canonical flow range
// [f0, f1).
type remapWindow struct{ f0, f1 int }

// planWindows greedily groups consecutive flows into windows of at most
// budget record words (a single flow larger than the budget gets a window
// of its own — a flow is never split). The plan depends only
// on the flow offsets and the budget.
func planWindows(flowStart []int64, budget int64) []remapWindow {
	nf := len(flowStart) - 1
	// Two consecutive windows hold more than budget words, which bounds
	// the window count.
	wins := make([]remapWindow, 0, min(int64(nf), 2*(flowStart[nf]*recWords/max(budget, 1)))+1)
	start := 0
	var cur int64
	for f := 0; f < nf; f++ {
		w := (flowStart[f+1] - flowStart[f]) * recWords
		if cur > 0 && cur+w > budget {
			wins = append(wins, remapWindow{start, f})
			start, cur = f, 0
		}
		cur += w
	}
	return append(wins, remapWindow{start, nf})
}

// windowBudget is the adaptive window budget in record words: the larger
// of the biggest single flow and ⌈total/DefaultWindowFraction⌉.
func windowBudget(flowStart []int64) int64 {
	nf := len(flowStart) - 1
	var largest int64
	for f := 0; f < nf; f++ {
		largest = max(largest, flowStart[f+1]-flowStart[f])
	}
	total := flowStart[nf] * recWords
	return max(largest*recWords, (total+DefaultWindowFraction-1)/DefaultWindowFraction)
}
