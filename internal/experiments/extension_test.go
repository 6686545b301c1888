package experiments

import "testing"

// TestExtensionRepeatedAdaption verifies the paper's closing conjecture:
// "With repeated adaption, the gains realized with load balancing may be
// even more significant" than the single-step Fig. 12 measurement.
func TestExtensionRepeatedAdaption(t *testing.T) {
	e := RunExtensionRepeated(8, 4)
	if len(e.Points) != 4 {
		t.Fatalf("got %d points", len(e.Points))
	}
	firstGain, finalGain := e.Points[0].Gain(), e.Points[len(e.Points)-1].Gain()
	if finalGain <= 1.05 {
		t.Fatalf("no cumulative benefit: %.2f", finalGain)
	}
	if finalGain < firstGain {
		t.Errorf("gain did not compound: first %.2f, final %.2f", firstGain, finalGain)
	}
	// The balancer must hold imbalance near 1 while the unbalanced run
	// drifts.
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
}
