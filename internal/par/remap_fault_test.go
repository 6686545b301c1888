package par

import (
	"errors"
	"reflect"
	"testing"

	"plum/internal/dual"
	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// stripRetryFields zeroes the recovery-only fields of a RemapResult, the
// time components retry charges flow into (RebuildTime is a subtraction
// against the inflated CommTime, so it can differ in the last ulp), and
// the worker-dependent critical op shares, so a faulted-but-recovered
// result can be compared against the fault-free reference.
func stripRetryFields(r RemapResult) RemapResult {
	r.Retries, r.RetryWords, r.WindowRetries, r.RetryTime = 0, 0, 0, 0
	r.CommTime, r.Total, r.RebuildTime = 0, 0, 0
	r.Ops.Crit, r.Ops.MemCrit = 0, 0
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
// the fault-free result under every window budget — same owner array,
// same payload accounting, same pack/rebuild times — with the recovery
// visible only in the retry counters and the comm-side times. And the
// entire faulted result, retry traffic included, must be byte-identical at
// every worker count.
func TestRemapFaultRecoveryParity(t *testing.T) {
	const p = 8
	refD, newOwner := bigFixture(t, p)
	refD.Workers = 1
	refRes, err := refD.ExecuteRemapStreaming(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}

	plan := &fault.Plan{Seed: 4242, Rate: 0.25}
	for _, b := range budgets {
		var first RemapResult
		for i, w := range []int{1, 2, 4, 8} {
			d, _ := bigFixture(t, p)
			d.Workers = w
			d.Retry = fault.Retry{MsgAttempts: 10, WindowRetries: 4}
			res, err := d.executeRemap(newOwner, machine.SP2(), b.words, plan)
			if err != nil {
				t.Fatalf("budget=%s workers=%d: recovery failed: %v", b.name, w, err)
			}
			if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
				t.Fatalf("budget=%s workers=%d: recovered owner array diverges from fault-free", b.name, w)
			}
			if res.Retries == 0 || res.RetryTime == 0 {
				t.Errorf("budget=%s workers=%d: rate 0.25 left no retry trace: %+v", b.name, w, res)
			}
			if res.Total <= refRes.Total || res.CommTime <= refRes.CommTime {
				t.Errorf("budget=%s workers=%d: retry charges missing from modeled time: total %g vs %g",
					b.name, w, res.Total, refRes.Total)
			}
			got, want := stripRetryFields(res), stripRetryFields(refRes)
			got.PeakWords = want.PeakWords
			if !reflect.DeepEqual(got, want) {
				t.Errorf("budget=%s workers=%d: recovered result diverges beyond retry fields:\n got %+v\nwant %+v",
					b.name, w, got, want)
			}
			if !approxEq(res.RebuildTime, refRes.RebuildTime) {
				t.Errorf("budget=%s workers=%d: rebuild time diverges: %g vs %g",
					b.name, w, res.RebuildTime, refRes.RebuildTime)
			}
			if i == 0 {
				first = res
				continue
			}
			a := res
			a.Ops.Crit, a.Ops.MemCrit = first.Ops.Crit, first.Ops.MemCrit
			if !reflect.DeepEqual(a, first) {
				t.Errorf("budget=%s workers=%d: faulted result not worker-invariant:\n got %+v\nwant %+v",
					b.name, w, a, first)
			}
		}
	}
}

// TestRemapRollbackRestoresOwnership pins graceful failure: when every
// message drops and the budget is tiny, both executors must report a
// typed, rolled-back transfer failure and leave the ownership map exactly
// as it was.
func TestRemapRollbackRestoresOwnership(t *testing.T) {
	const p = 4
	for _, streaming := range []bool{false, true} {
		d, newOwner := bigFixture(t, p)
		before := d.Owners()
		d.Faults = &fault.Plan{Seed: 9, Rate: 1, Kinds: []fault.Kind{fault.Drop}}
		d.Retry = fault.Retry{MsgAttempts: 2, WindowRetries: 1}
		var err error
		if streaming {
			_, err = d.ExecuteRemapStreaming(newOwner, machine.SP2())
		} else {
			_, err = d.ExecuteRemap(newOwner, machine.SP2())
		}
		var re *RemapError
		if !errors.As(err, &re) {
			t.Fatalf("streaming=%v: error %v is not a *RemapError", streaming, err)
		}
		if re.Failure != FailTransfer || !re.RolledBack {
			t.Fatalf("streaming=%v: unexpected failure %+v", streaming, re)
		}
		if re.Tries != 2 {
			t.Errorf("streaming=%v: window tried %d times, want 2", streaming, re.Tries)
		}
		// The whole-payload entry is one exchange, not a window stream.
		if (streaming && re.Window < 0) || (!streaming && re.Window != -1) {
			t.Errorf("streaming=%v: failure names window %d", streaming, re.Window)
		}
		if !reflect.DeepEqual(d.Owners(), before) {
			t.Fatalf("streaming=%v: ownership not rolled back", streaming)
		}
	}
}

// TestRemapPartialCommitRollback drives the streaming executor into a
// mid-stream abort — early windows commit, a later one exhausts its
// retries — and verifies the checkpoint restores even the already
// committed windows.
func TestRemapPartialCommitRollback(t *testing.T) {
	const p = 4
	d, newOwner := bigFixture(t, p)
	before := d.Owners()
	// A low fault rate with zero recovery budget: the fixture's eight
	// flows ride one per window and only flows that exist draw a fate, so
	// the seed is picked for a late one — seven windows sail through and
	// commit, the eighth drops its message and aborts the transaction.
	plan := &fault.Plan{Seed: 5, Rate: 0.05, Kinds: []fault.Kind{fault.Drop}}
	d.Retry = fault.Retry{MsgAttempts: 1, WindowRetries: 0}
	_, err := d.executeRemap(newOwner, machine.SP2(), 512, plan) // many small windows
	var re *RemapError
	if !errors.As(err, &re) {
		t.Fatalf("expected a rolled-back RemapError, got %v", err)
	}
	if !re.RolledBack || re.Window < 0 {
		t.Fatalf("unexpected failure shape: %+v", re)
	}
	if re.Window == 0 {
		t.Skip("first window failed; no partial commit to verify at this seed")
	}
	if !reflect.DeepEqual(d.Owners(), before) {
		t.Fatal("partial commits survived the rollback")
	}
}

// TestRemapZeroRatePlanIsLegacy pins the byte-parity acceptance criterion
// at the executor level: under every window budget a present-but-empty
// fault plan must take the legacy exchange and reproduce the nil-plan
// result exactly, retry fields and all.
func TestRemapZeroRatePlanIsLegacy(t *testing.T) {
	const p = 8
	for _, b := range budgets {
		refD, newOwner := bigFixture(t, p)
		refRes, err := refD.executeRemap(newOwner, machine.SP2(), b.words, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := bigFixture(t, p)
		d.Retry = fault.Budget(5)
		res, err := d.executeRemap(newOwner, machine.SP2(), b.words, &fault.Plan{Seed: 123, Rate: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("budget=%s: zero-rate plan changed the result:\n got %+v\nwant %+v", b.name, res, refRes)
		}
		if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
			t.Errorf("budget=%s: zero-rate plan changed the owner array", b.name)
		}
	}
}

// FuzzReliableExchange is the transactional contract under arbitrary fault
// plans: the streaming remap either converges to the fault-free result
// (same owners, same conserved payload) or rolls back with the pre-remap
// ownership verifiably intact. There is no third state.
func FuzzReliableExchange(f *testing.F) {
	f.Add(int64(1), 0.2, uint8(3), uint8(2), int64(0))
	f.Add(int64(7), 0.95, uint8(1), uint8(0), int64(512))
	f.Add(int64(42), 0.5, uint8(6), uint8(3), int64(97))
	f.Fuzz(func(t *testing.T, seed int64, rate float64, attempts, winRetries uint8, window int64) {
		plan := &fault.Plan{Seed: seed, Rate: rate}
		if plan.Validate() != nil {
			t.Skip()
		}
		const p = 4
		build := func() (*Dist, []int32) {
			m := meshgen.SmallBox()
			g := dual.Build(m)
			d := NewDist(m, p, partition.Partition(g, p, partition.MethodGraphGrow))
			newOwner := d.Owners()
			for v := range newOwner {
				if v%2 == 0 {
					newOwner[v] = (newOwner[v] + 1) % p
				}
			}
			return d, newOwner
		}
		refD, newOwner := build()
		refRes, err := refD.executeRemap(newOwner, machine.SP2(), window%2048, nil)
		if err != nil {
			t.Fatal(err)
		}

		d, _ := build()
		before := d.Owners()
		d.Retry = fault.Retry{MsgAttempts: int(attempts % 8), WindowRetries: int(winRetries % 4)}
		res, err := d.executeRemap(newOwner, machine.SP2(), window%2048, plan)
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
