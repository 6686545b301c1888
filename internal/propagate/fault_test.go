package propagate_test

import (
	"testing"

	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/propagate"
)

// faultPairs is a batch list with real fan-out: every ordered pair of 6
// ranks, word counts varying per pair.
func faultPairs(p int) []propagate.PairWords {
	var out []propagate.PairWords
	for s := int32(0); s < int32(p); s++ {
		for d := int32(0); d < int32(p); d++ {
			if s != d {
				out = append(out, propagate.PairWords{Src: s, Dst: d, Words: int64(1 + (s+2*d)%5)})
			}
		}
	}
	return out
}

// chargeWith runs one ChargeExchange on a fresh clock with the given
// fault model and returns the per-rank times plus the counters.
func chargeWith(p int, x *fault.ExchangeModel) ([]float64, int64, int64) {
	clk := machine.NewClock(p)
	propagate.Engine{Faults: x}.ChargeExchange(clk, machine.SP2(), faultPairs(p))
	times := make([]float64, p)
	for r := 0; r < p; r++ {
		times[r] = clk.Rank(r)
	}
	if x == nil {
		return times, 0, 0
	}
	return times, x.Resent, x.BackoffUnits
}

// TestChargeExchangeFaultCharges pins the fault-aware exchange charging:
// a nil model reproduces the fault-free clock exactly, an armed model adds
// strictly positive sender-side time, and two fresh models over the same
// plan charge bit-identical times and counters.
func TestChargeExchangeFaultCharges(t *testing.T) {
	// The notifications travel on the flat schedule, one message per
	// (src, dst) pair; the subtest is named after it.
	t.Run("flat", testChargeExchangeFaultCharges)
}

func testChargeExchangeFaultCharges(t *testing.T) {
	const p = 6
	plan := &fault.Plan{Seed: 77, Rate: 0.5}
	clean, _, _ := chargeWith(p, nil)

	x1 := plan.Exchange(fault.StageAdapt, 0, 6)
	faulted, resent, backoff := chargeWith(p, x1)
	if resent == 0 || backoff == 0 {
		t.Fatalf("rate 0.5 left no retry trace: resent=%d backoff=%d", resent, backoff)
	}
	var slower bool
	for r := 0; r < p; r++ {
		if faulted[r] < clean[r] {
			t.Errorf("rank %d got cheaper under faults: %g vs %g", r, faulted[r], clean[r])
		}
		if faulted[r] > clean[r] {
			slower = true
		}
	}
	if !slower {
		t.Error("fault model charged no retry time anywhere")
	}

	x2 := plan.Exchange(fault.StageAdapt, 0, 6)
	again, resent2, backoff2 := chargeWith(p, x2)
	if resent2 != resent || backoff2 != backoff {
		t.Errorf("counters not deterministic: %d/%d vs %d/%d", resent2, backoff2, resent, backoff)
	}
	for r := 0; r < p; r++ {
		if again[r] != faulted[r] {
			t.Errorf("rank %d charge not deterministic: %g vs %g", r, again[r], faulted[r])
		}
	}

	// A later engine without the model charges the fault-free clock bit
	// for bit: nothing stays armed.
	disarmed, _, _ := chargeWith(p, nil)
	for r := 0; r < p; r++ {
		if disarmed[r] != clean[r] {
			t.Errorf("rank %d still charged after disarm: %g vs %g", r, disarmed[r], clean[r])
		}
	}
}

// TestChargeExchangeExhaustion pins the escalation semantics: with every
// attempt dropped and a budget of one, every charged message exhausts —
// notifications are control-plane traffic, so the model delivers them out
// of band at one extra backoff unit rather than failing the exchange.
func TestChargeExchangeExhaustion(t *testing.T) {
	const p = 4
	plan := &fault.Plan{Seed: 5, Rate: 1, Kinds: []fault.Kind{fault.Drop}}
	x := plan.Exchange(fault.StageAdapt, 0, 1)
	_, resent, backoff := chargeWith(p, x)
	const wantMsgs = int64(p * (p - 1)) // one per pair
	if x.Exhausted != wantMsgs {
		t.Errorf("%d messages exhausted, want %d", x.Exhausted, wantMsgs)
	}
	if resent != 0 || backoff != wantMsgs {
		t.Errorf("exhaustion must cost one backoff unit per message: resent=%d backoff=%d", resent, backoff)
	}
}
