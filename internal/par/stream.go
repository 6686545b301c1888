package par

import (
	"fmt"

	"plum/internal/comm"
	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/obs"
)

// The streaming remap executor. The bulk-synchronous ExecuteRemap
// materializes every migrating element's record at once (pack everything,
// exchange everything, rebuild everything), so its payload buffer peaks at
// Moved × RecordWords. ExecuteRemapStreaming interleaves pack / exchange /
// verify per window of flows instead, committing windows in the canonical
// src-major flow order the CSR scatter already defines. Because the window
// layout is computed from the flow offsets alone — never from worker
// scheduling — the payload bytes each rank sends, the owner array, the
// modeled times, and the op accounting are byte-identical to the bulk
// path at any worker count; only PeakWords differs, and that is the
// point: it drops from the total to the largest in-flight window.

// DefaultWindowFraction divides the total payload volume to derive the
// adaptive window budget: with no explicit Dist.RemapWindow the streaming
// executor targets ⌈total/8⌉ record words per window (floored at the
// largest single flow, which can never be split), giving roughly eight
// in-flight windows and a peak strictly below the total whenever more
// than one flow moves.
const DefaultWindowFraction = 8

// remapWindow is one streaming commit unit: the contiguous canonical flow
// range [f0, f1).
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

// windowBudget resolves the streaming window budget in record words: the
// explicit override when set, else the adaptive default — the larger of
// the biggest single flow and ⌈total/DefaultWindowFraction⌉.
func windowBudget(flowStart []int64, override int64) int64 {
	if override > 0 {
		return override
	}
	nf := len(flowStart) - 1
	var largest int64
	for f := 0; f < nf; f++ {
		largest = max(largest, flowStart[f+1]-flowStart[f])
	}
	total := flowStart[nf] * recWords
	return max(largest*recWords, (total+DefaultWindowFraction-1)/DefaultWindowFraction)
}

// ExecuteRemapStreaming migrates element trees whose dual vertices change
// owner under newOwner, like ExecuteRemap, but streams the payload: flows
// are packed, exchanged over the comm runtime, and verified one window at
// a time in canonical src-major order, with the window buffer reused
// across windows. Peak payload memory is the largest window
// (RemapResult.PeakWords) instead of the whole record buffer; everything
// else in the result — payload bytes on the wire, owner array, modeled
// times, op accounting — is byte-identical to the bulk-synchronous path
// at any worker count. The window budget comes from Dist.RemapWindow
// (≤ 0 = adaptive, see windowBudget).
//
// With Dist.Faults enabled the stream runs transactionally: the owner
// array is checkpointed up front, each verified window immediately commits
// its flows' ownership, a window whose reliable transfers failed is
// re-exchanged up to Retry.WindowRetries times, and exhausted retries (or
// structural failures) roll every committed window back to the checkpoint
// and return a *RemapError with RolledBack set.
func (d *Dist) ExecuteRemapStreaming(newOwner []int32, mdl machine.Model) (RemapResult, error) {
	if len(newOwner) != len(d.owner) {
		return RemapResult{}, fmt.Errorf("par: newOwner has %d entries, want %d", len(newOwner), len(d.owner))
	}
	m := d.M
	p := d.P
	ew := EffectiveWorkers(len(m.Elems), d.Workers)
	fi := collectFlowIndex(m, d.rootDual, d.owner, newOwner, p, ew)

	res := RemapResult{
		Moved: fi.moved,
		Sets:  fi.sets,
		Ops:   PredictRemapOps(len(m.Elems), fi.moved, fi.sets, p, d.Workers),
	}
	faulty := d.Faults.Enabled()
	retry := d.Retry.Normalize()

	// The transaction checkpoint: with faults on, each verified window
	// commits its ownership immediately, so a mid-stream abort must be
	// able to restore the pre-remap state.
	var checkpoint []int32
	if faulty {
		checkpoint = append([]int32(nil), d.owner...)
	}
	rollback := func(e *RemapError) (RemapResult, error) {
		if checkpoint != nil {
			d.setOwners(checkpoint)
		}
		return RemapResult{}, e
	}

	// Stream the windows: pack into the reused buffer, exchange the
	// window's flows for real, and verify each received flow against the
	// plan before the next window is admitted — so no more than one
	// window of payload ever exists on the host. recvCount accumulates
	// per-rank across windows; each goroutine rank touches only its own
	// slot and the Runs are sequential, so there is no contention.
	wins := planWindows(fi.flowStart, windowBudget(fi.flowStart, d.RemapWindow))
	w := comm.NewWorld(p)
	w.SetDeadline(d.StageDeadline)
	var crash []bool
	if faulty {
		w.SetFaults(d.Faults.Hook(fault.StageRemap, d.FaultCycle), retry.MsgAttempts)
		// Crash fates are stage-scoped, drawn once per balance cycle: the
		// fated ranks die at the first window's boundary, before anything
		// has committed, and the whole stream rolls back.
		crash = d.crashMask(d.crashedRanks())
	}
	recvCount := make([]int64, p)
	var buf []int64
	for wi, win := range wins {
		base := fi.flowStart[win.f0]
		words := (fi.flowStart[win.f1] - base) * recWords
		res.PeakWords = max(res.PeakWords, words)
		if int64(cap(buf)) < words {
			buf = make([]int64, words)
		}
		bufW := buf[:words]
		fi.packRange(m, d.rootDual, win.f0, win.f1, bufW, d.Workers)
		// The window's wire records addressed by canonical flow id, for
		// whichever exchange schedule moves them. Per-window rebuild
		// verification is plan-exact on every path: a received flow must
		// match the plan's record count, so torn or misrouted windows fail
		// here, not at the final conservation check.
		rec := func(f int) []int64 {
			lo := (fi.flowStart[f] - base) * recWords
			hi := (fi.flowStart[f+1] - base) * recWords
			return bufW[lo:hi]
		}
		plan := &winPlan{f0: win.f0, f1: win.f1, p: p, flowStart: fi.flowStart, rec: rec}
		if !faulty {
			if err := exchangeWindow(w, d.Exchange, mdl.Topo, plan, false, recvCount, nil, nil); err != nil {
				return RemapResult{}, remapErrFrom(err, wi, 1)
			}
			if d.Trace != nil {
				d.Trace.Event("info", "remap.window",
					obs.Int("window", int64(wi)), obs.Int("flows", int64(win.f1-win.f0)), obs.Int("words", words))
			}
			continue
		}

		// Transactional window: exchange over the reliable path, retry on
		// failed transfers, commit ownership on success. Only the first
		// window carries the crash mask — a crash poisons the world and
		// aborts the stream, so later windows never run.
		winCrash := crash
		if wi > 0 {
			winCrash = nil
		}
		tries := 0
		for {
			tries++
			winRecv := make([]int64, p)
			failCount := make([]int64, p)
			if err := exchangeWindow(w, d.Exchange, mdl.Topo, plan, true, winRecv, failCount, winCrash); err != nil {
				return rollback(remapErrFrom(err, wi, tries))
			}
			var nfail int64
			for _, f := range failCount {
				nfail += f
			}
			if nfail == 0 {
				for r, n := range winRecv {
					recvCount[r] += n
				}
				break
			}
			if tries > retry.WindowRetries {
				return rollback(&RemapError{Failure: FailTransfer, Window: wi, Tries: tries, RolledBack: true,
					Detail: fmt.Sprintf("%d transfers failed after %d attempts per message", nfail, retry.MsgAttempts)})
			}
			res.WindowRetries++
			if d.Trace != nil {
				d.Trace.Event("warn", "remap.window.retry",
					obs.Int("window", int64(wi)), obs.Int("failed", nfail), obs.Int("try", int64(tries)))
			}
		}
		// Commit the window: every element in its flows now belongs to the
		// flow's destination rank. Writes are idempotent per dual vertex
		// and cover exactly the vertices whose owner changes, so after the
		// last window the ownership map equals newOwner.
		for f := win.f0; f < win.f1; f++ {
			dst := int32(f % p)
			for _, ei := range fi.elems[fi.flowStart[f]:fi.flowStart[f+1]] {
				d.setOwner(m.Elems[ei].Root, dst)
			}
		}
		if d.Trace != nil {
			// The serial window loop is canonical order by construction:
			// one commit event per transactional window, in plan order.
			d.Trace.Event("info", "remap.window.commit",
				obs.Int("window", int64(wi)), obs.Int("flows", int64(win.f1-win.f0)), obs.Int("words", words))
		}
	}
	var recvTotal int64
	for _, n := range recvCount {
		recvTotal += n
	}
	if recvTotal != fi.moved {
		return rollback(&RemapError{Failure: FailConservation, Window: -1, Tries: 1, RolledBack: true,
			Detail: fmt.Sprintf("moved %d elements but received %d", fi.moved, recvTotal)})
	}

	var rc *retryCharges
	if faulty {
		for _, s := range w.RankStats() {
			res.Retries += s.Retries
			res.RetryWords += s.RetryWords
		}
		resends, backoff := w.RetryCounters()
		rc = &retryCharges{resends: resends, backoff: backoff}
	}
	d.accountRemap(fi.flowStart, mdl, &res, rc)

	if !faulty {
		d.setOwners(newOwner)
	}
	return res, nil
}
