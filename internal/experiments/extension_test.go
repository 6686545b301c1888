package experiments

import (
	"fmt"
	"testing"
)

// TestExtensionRepeatedAdaption verifies the paper's closing conjecture:
// "With repeated adaption, the gains realized with load balancing may be
// even more significant" than the single-step Fig. 12 measurement.
//
// It holds the conjecture over partitioner seeds 1–3 on the exhibit's own
// 6-cycle sweep, not over one initial partition: at 4 cycles, whether the
// final gain beats the first depends on the seed (seeds 1 and 5 fall
// slightly, seeds 2–4 rise), while over 6 cycles it compounds at seeds
// 1–5. Seeds 4 and 5 are left out only to keep the package's wall time:
// one 6-cycle run takes about 2 s, and -short runs seed 1 alone.
func TestExtensionRepeatedAdaption(t *testing.T) {
	const cycles = 6
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			e := RunExtensionRepeated(8, cycles, seed)
			if len(e.Points) != cycles {
				t.Fatalf("got %d points", len(e.Points))
			}
			firstGain, finalGain := e.Points[0].Gain(), e.Points[len(e.Points)-1].Gain()
			if finalGain <= 1.05 {
				t.Fatalf("no cumulative benefit: %.2f", finalGain)
			}
			if finalGain < firstGain {
				t.Errorf("gain did not compound: first %.2f, final %.2f", firstGain, finalGain)
			}
			// The balancer must hold imbalance near 1 while the unbalanced
			// run drifts.
			for _, pt := range e.Points {
				if pt.ImbBalanced > 1.25 {
					t.Errorf("cycle %d: balanced imbalance %.2f exceeds threshold region", pt.Cycle, pt.ImbBalanced)
				}
			}
			last := e.Points[len(e.Points)-1]
			if last.ImbUnbalanced < 1.5 {
				t.Errorf("unbalanced run unexpectedly balanced: %.2f", last.ImbUnbalanced)
			}
			if e.String() == "" {
				t.Error("empty rendering")
			}
		})
	}
}
