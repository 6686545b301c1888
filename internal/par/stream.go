package par

// The window planner of the remap executor. executeRemap packs,
// exchanges, and verifies one window of flows at a time, in the canonical
// src-major flow order the CSR scatter already defines. Because the window
// layout is computed from the flow offsets and the budget alone — never
// from worker scheduling — the payload bytes each rank sends, the owner
// array, the modeled times, and the op accounting are the same under every
// budget at any worker count; only PeakWords differs, and that is the
// point: it drops from the total to the largest in-flight window.

// DefaultWindowFraction divides the total payload volume to derive the
// adaptive window budget: ExecuteRemapStreaming targets ⌈total/8⌉ record
// words per window (floored at the largest single flow, which can never
// be split), giving roughly eight in-flight windows and a peak strictly
// below the total whenever more than one flow moves.
const DefaultWindowFraction = 8

// remapWindow is one commit unit: the contiguous canonical flow range
// [f0, f1).
type remapWindow struct{ f0, f1 int }

// planWindows greedily groups consecutive flows into windows of at most
// budget record words (a single flow larger than the budget gets a window
// of its own — flows are the atomic commit unit). The plan depends only
// on the flow offsets and the budget, so it is identical at every worker
// count.
func planWindows(flowStart []int64, budget int64) []remapWindow {
	nf := len(flowStart) - 1
	var wins []remapWindow
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

// windowBudget resolves a window budget in record words: budget itself
// when positive, else the adaptive default — the larger of the biggest
// single flow and ⌈total/DefaultWindowFraction⌉.
func windowBudget(flowStart []int64, budget int64) int64 {
	if budget > 0 {
		return budget
	}
	nf := len(flowStart) - 1
	var largest int64
	for f := 0; f < nf; f++ {
		largest = max(largest, flowStart[f+1]-flowStart[f])
	}
	total := flowStart[nf] * recWords
	return max(largest*recWords, (total+DefaultWindowFraction-1)/DefaultWindowFraction)
}
