package par

import (
	"errors"
	"reflect"
	"testing"

	"plum/internal/fault"
	"plum/internal/machine"
)

// stripRetryFields zeroes the recovery-only fields of a RemapResult, the
// time components retry charges flow into (RebuildTime is a subtraction
// against the inflated CommTime, so it can differ in the last ulp), so a
// faulted-but-recovered result can be compared against the fault-free
// reference.
func stripRetryFields(r RemapResult) RemapResult {
	r.Retries, r.RetryWords, r.WindowRetries, r.RetryTime = 0, 0, 0, 0
	r.CommTime, r.Total, r.RebuildTime = 0, 0, 0
	return r
}

// approxEq compares two modeled times to a relative 1e-9.
func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	s := max(a, b)
	return d <= 1e-9*max(s, 1e-30)
}

// TestRemapFaultRecoveryParity is the recovery half of the determinism
// contract: with a generous retry budget, a faulted remap must converge to
// the fault-free result — same owner array, same payload accounting, same
// pack/rebuild times — with the recovery visible only in the retry
// counters and the comm-side times.
func TestRemapFaultRecoveryParity(t *testing.T) {
	const p = 8
	refD, newOwner := bigFixture(t, p)
	refRes, err := refD.ExecuteRemap(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}

	d, _ := bigFixture(t, p)
	d.Retry = fault.Retry{MsgAttempts: 10, WindowRetries: 4}
	res, err := d.executeRemap(newOwner, machine.SP2(), &fault.Plan{Seed: 4242, Rate: 0.25})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
		t.Fatal("recovered owner array diverges from fault-free")
	}
	if res.Retries == 0 || res.RetryTime == 0 {
		t.Errorf("rate 0.25 left no retry trace: %+v", res)
	}
	if res.Total <= refRes.Total || res.CommTime <= refRes.CommTime {
		t.Errorf("retry charges missing from modeled time: total %g vs %g", res.Total, refRes.Total)
	}
	if got, want := stripRetryFields(res), stripRetryFields(refRes); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered result diverges beyond retry fields:\n got %+v\nwant %+v", got, want)
	}
	if !approxEq(res.RebuildTime, refRes.RebuildTime) {
		t.Errorf("rebuild time diverges: %g vs %g", res.RebuildTime, refRes.RebuildTime)
	}
}

// TestRemapRollbackRestoresOwnership pins graceful failure: when every
// message drops and the budget is tiny, the executor must report a typed,
// rolled-back transfer failure of the first window and leave the
// ownership map exactly as it was.
func TestRemapRollbackRestoresOwnership(t *testing.T) {
	const p = 4
	d, newOwner := bigFixture(t, p)
	before := d.Owners()
	d.Faults = &fault.Plan{Seed: 9, Rate: 1, Kinds: []fault.Kind{fault.Drop}}
	d.Retry = fault.Retry{MsgAttempts: 2, WindowRetries: 1}
	_, err := d.ExecuteRemap(newOwner, machine.SP2())
	var re *RemapError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RemapError", err)
	}
	if re.Failure != FailTransfer || !re.RolledBack {
		t.Fatalf("unexpected failure %+v", re)
	}
	if re.Tries != 2 {
		t.Errorf("window tried %d times, want 2", re.Tries)
	}
	if re.Window != 0 {
		t.Errorf("failure names window %d, want the first", re.Window)
	}
	if !reflect.DeepEqual(d.Owners(), before) {
		t.Fatal("ownership not rolled back")
	}
}

// TestRemapCrashAtWindowZero pins the crash path: ranks the plan fates
// to die fail the remap at the first window's boundary, before any
// message draws a fate — FailCrash at window 0 after one try, naming
// exactly the fated alive ranks in ascending order (sparing the lowest
// when every survivor is fated) — and the ownership is left untouched.
func TestRemapCrashAtWindowZero(t *testing.T) {
	const p = 8
	for _, c := range []struct {
		name string
		dead []int
		rate float64
	}{
		{"some fated", nil, 0.4},
		{"all fated", nil, 1},
		{"all survivors fated after a death", []int{0}, 1},
	} {
		d, newOwner := bigFixture(t, p)
		d.MarkDead(c.dead)
		d.FaultCycle = 3
		before := d.Owners()
		plan := &fault.Plan{Seed: 11, Rate: c.rate, Kinds: []fault.Kind{fault.Crash, fault.Drop}}
		var want []int
		for _, r := range d.Alive() {
			if plan.Crashed(fault.StageRemap, d.FaultCycle, int(r)) {
				want = append(want, int(r))
			}
		}
		if len(want) == d.AliveCount() {
			want = want[1:]
		}
		if len(want) == 0 || !reflect.DeepEqual(want, d.crashRanks(plan)) {
			t.Fatalf("%s: fated ranks %v, crashRanks %v", c.name, want, d.crashRanks(plan))
		}
		_, err := d.executeRemap(newOwner, machine.SP2(), plan)
		var re *RemapError
		if !errors.As(err, &re) {
			t.Fatalf("%s: error %v is not a *RemapError", c.name, err)
		}
		if re.Failure != FailCrash || re.Window != 0 || re.Tries != 1 || !re.RolledBack || !reflect.DeepEqual(re.Crashed, want) {
			t.Errorf("%s: got %+v, want FailCrash at window 0, one try, ranks %v", c.name, re, want)
		}
		if !reflect.DeepEqual(d.Owners(), before) {
			t.Errorf("%s: a crashed remap changed the ownership", c.name)
		}
	}
}

// TestRemapPartialCommitRollback drives the executor into a mid-stream
// abort — early windows verify, a later one exhausts its retries — and
// verifies the ownership map is untouched: it flips only after the last
// window.
func TestRemapPartialCommitRollback(t *testing.T) {
	const p = 4
	d, newOwner := bigFixture(t, p)
	before := d.Owners()
	// A low fault rate with zero recovery budget: the adaptive plan puts
	// the fixture's eight flows in seven windows and only flows that exist
	// draw a fate, so the seed is picked for a late one — six windows sail
	// through, the seventh drops its message and aborts the transaction.
	plan := &fault.Plan{Seed: 5, Rate: 0.05, Kinds: []fault.Kind{fault.Drop}}
	d.Retry = fault.Retry{MsgAttempts: 1, WindowRetries: 0}
	_, err := d.executeRemap(newOwner, machine.SP2(), plan)
	var re *RemapError
	if !errors.As(err, &re) {
		t.Fatalf("expected a rolled-back RemapError, got %v", err)
	}
	if !re.RolledBack || re.Window < 0 {
		t.Fatalf("unexpected failure shape: %+v", re)
	}
	if re.Window == 0 {
		t.Fatal("first window failed: no verified window to leave behind at this seed; re-pick it")
	}
	if !reflect.DeepEqual(d.Owners(), before) {
		t.Fatal("verified windows changed ownership before the remap committed")
	}
}

// TestRemapZeroRatePlanIsLegacy pins the byte-parity acceptance criterion
// at the executor level: a present-but-empty fault plan must take the
// legacy exchange and reproduce the nil-plan result exactly, retry fields
// and all.
func TestRemapZeroRatePlanIsLegacy(t *testing.T) {
	const p = 8
	refD, newOwner := bigFixture(t, p)
	refRes, err := refD.executeRemap(newOwner, machine.SP2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := bigFixture(t, p)
	d.Retry = fault.Budget(5)
	res, err := d.executeRemap(newOwner, machine.SP2(), &fault.Plan{Seed: 123, Rate: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, refRes) {
		t.Errorf("zero-rate plan changed the result:\n got %+v\nwant %+v", res, refRes)
	}
	if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
		t.Error("zero-rate plan changed the owner array")
	}
}

// FuzzReliableExchange is the transactional contract under arbitrary fault
// plans: the streaming remap either converges to the fault-free result
// (same owners, same conserved payload) or rolls back with the pre-remap
// ownership verifiably intact. There is no third state.
func FuzzReliableExchange(f *testing.F) {
	f.Add(int64(1), 0.2, uint8(3), uint8(2))
	f.Add(int64(7), 0.95, uint8(1), uint8(0))
	f.Add(int64(42), 0.5, uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, rate float64, attempts, winRetries uint8) {
		plan := &fault.Plan{Seed: seed, Rate: rate}
		if plan.Validate() != nil {
			t.Skip()
		}
		const p = 4
		refD, newOwner := smallBoxRemap(p)
		refRes, err := refD.executeRemap(newOwner, machine.SP2(), nil)
		if err != nil {
			t.Fatal(err)
		}

		d, _ := smallBoxRemap(p)
		before := d.Owners()
		d.Retry = fault.Retry{MsgAttempts: int(attempts % 8), WindowRetries: int(winRetries % 4)}
		res, err := d.executeRemap(newOwner, machine.SP2(), plan)
		if err != nil {
			var re *RemapError
			if !errors.As(err, &re) {
				t.Fatalf("untyped remap failure: %v", err)
			}
			if !re.RolledBack {
				t.Fatalf("failure without rollback: %+v", re)
			}
			if !reflect.DeepEqual(d.Owners(), before) {
				t.Fatal("rollback left a partially committed ownership map")
			}
			return
		}
		if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
			t.Fatal("converged exchange diverges from the fault-free owner array")
		}
		if got, want := stripRetryFields(res), stripRetryFields(refRes); !reflect.DeepEqual(got, want) {
			t.Fatalf("converged exchange broke conservation:\n got %+v\nwant %+v", got, want)
		}
	})
}
