package par

import (
	"cmp"
	"fmt"
	"slices"

	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/obs"
	"plum/internal/remap"
)

// recWords is the size of one migrating element record on the modeled
// wire: (root, v0..v3, level), the root element id being the tree's dual
// vertex.
const recWords = 6

// RecordWords is the exported size of one migrating element record, in
// words: Moved × RecordWords is the whole payload a remap moves, the
// figure RemapResult.PeakWords is bounded by (and, under the adaptive
// window budget, strictly below on multi-flow workloads).
const RecordWords = recWords

// RemapResult reports one executed data remapping.
type RemapResult struct {
	// Moved is the number of elements migrated (the cost model's C: whole
	// refinement trees move with their roots, so this sums Wremap over
	// reassigned dual vertices).
	Moved int64
	// Sets is the number of (source, destination) element sets (the cost
	// model's N).
	Sets int
	// WordsMoved is the modeled data volume: Moved × ElemWords plus the
	// shared-structure perturbation.
	WordsMoved int64
	// PeakWords is the largest window's record words (Moved × RecordWords
	// is the total), strictly below the total whenever more than one flow
	// moves under the adaptive budget. The windows are planned from the
	// canonical flow list alone.
	PeakWords int64
	// PackTime, CommTime, RebuildTime decompose the modeled remapping
	// overhead; Total is the slowest-rank end-to-end time.
	PackTime, CommTime, RebuildTime, Total float64
	// Setups counts the message setups of the base exchange under the
	// Dist's schedule — one per message of the schedule, so flat pays one
	// per nonempty flow and aggregated one per sending rank
	// (retransmissions are counted in Retries, not here). SetupTime is
	// their modeled setup charge, Setups·Tsetup: the component of CommTime
	// the exchange schedule exists to shrink, reported separately so
	// callers never fold it silently into volume time.
	Setups    int64
	SetupTime float64
	// Retries and RetryWords count the extra messages (and their payload
	// words, in record words on the wire) the exchange sent recovering
	// injected faults; WindowRetries the window re-exchanges. RetryTime is
	// the slowest rank's modeled recovery charge — resent messages at
	// MsgTime plus exponential-backoff units at Model.RetryBackoff — which
	// is also folded into CommTime/Total. All stay zero without an enabled
	// fault plan.
	Retries, RetryWords int64
	WindowRetries       int
	RetryTime           float64
}

// pairRetry is the recovery one (Src, Dst) flow needed under a fault
// plan: Resends extra messages, and Backoff modeled backoff units
// (Σ 2^try per lost attempt, plus one unit per stall and per failure), to
// be scaled by the machine model's RetryBackoff.
type pairRetry struct {
	Src, Dst         int32
	Resends, Backoff int64
}

// ExecuteRemap migrates element trees whose dual vertices change owner
// under newOwner: it charges the machine model the pack, transfer, and
// rebuild costs of sending every migrating element to its new owner, and
// updates the ownership map.
//
// Following the paper's experimental methodology, the mesh stays the
// shared ground truth and the exchange is modeled — "all appropriate mesh
// objects are sent to their new host processor, accurately modeling the
// communication phase" — with the data-structure rebuild charged to the
// model (RebuildElem per received element).
//
// The exchange runs in windows under the adaptive budget (see
// windowBudget): each window is the commit unit of the fault plan's
// retries, and the largest one is RemapResult.PeakWords, while the machine
// model charges the paper's single bulk-synchronous exchange. A
// *RemapError names the failing window, and with Dist.Trace set each
// delivered window leaves a remap.window event (and each window retry a
// remap.window.retry).
func (d *Dist) ExecuteRemap(newOwner []int32, mdl machine.Model) (RemapResult, error) {
	return d.executeRemap(newOwner, mdl, d.Faults)
}

// ExecuteRemapRecovery migrates the elements of crashed ranks onto the
// survivors after a FailCrash rollback: the same windowed exchange as
// ExecuteRemap — same canonical flow list and windows, same
// machine-model charges via ChargeRemap — run without the
// fault plan. Recovery is the repair path, not another fault surface:
// letting the plan re-draw crash or message fates here could cascade a
// recovery into another rollback forever, so the modeled recovery runs
// clean. The failed remap left the pre-pass ownership untouched, so the
// dead ranks' outgoing flows are their elements as that ownership places
// them, re-sourced onto the survivors; their cost is charged like any
// other flow, which is exactly the modeled price of re-sourcing the lost
// subgrid.
func (d *Dist) ExecuteRemapRecovery(newOwner []int32, mdl machine.Model) (RemapResult, error) {
	return d.executeRemap(newOwner, mdl, nil)
}

// executeRemap is the remap executor behind both entry points. plan is
// the fault plan, nil or zero-rate for a fault-free exchange.
//
// countFlows lists the flows in canonical (src, dst) order and
// planWindows groups consecutive flows under the adaptive budget. Under
// an enabled plan the ranks it fates to crash die at the first window's
// boundary, before a word moves: the remap fails at once with FailCrash
// naming them (there is no rank to retry with; the caller recovers by
// remapping onto the survivors). Otherwise one fault.ExchangeModel per
// remap draws every window flow's delivery on each try, its per-pair
// attempt counters running on across tries; a window with an undelivered
// flow is re-exchanged up to Retry.WindowRetries times, and exhausted
// retries return a *RemapError with RolledBack set. Ownership flips once,
// after the last window is delivered, so every failure leaves it
// untouched.
//
// Everything is a function of the plan and the canonical flow list — the
// windows, the fault draws, the float sums of the charge — so the owner
// array and the whole RemapResult are byte-identical run to run, and a
// fault-free RemapResult is ChargeRemap of the flows up to PeakWords.
// Every structure the executor builds is sized by P or the flows that
// exist, never by the P² pairs that could carry one.
func (d *Dist) executeRemap(newOwner []int32, mdl machine.Model, plan *fault.Plan) (RemapResult, error) {
	if len(newOwner) != len(d.owner) {
		return RemapResult{}, fmt.Errorf("par: newOwner has %d entries, want %d", len(newOwner), len(d.owner))
	}
	flows := countFlows(d.M, d.owner, newOwner, d.P)
	flowStart := make([]int64, len(flows)+1)
	for f, fl := range flows {
		flowStart[f+1] = flowStart[f] + fl.Elems
	}
	wins := planWindows(flowStart, windowBudget(flowStart))

	var x *fault.ExchangeModel // nil: every message is delivered clean
	var retries []pairRetry    // per flow, under an enabled plan
	retry := d.Retry.Normalize()
	if plan.Enabled() {
		// Crash fates are stage-scoped, drawn once per balance cycle.
		if crashed := d.crashRanks(plan); crashed != nil {
			return RemapResult{}, &RemapError{Failure: FailCrash, Window: 0, Tries: 1, RolledBack: true,
				Crashed: crashed, Detail: fmt.Sprintf("ranks %v died at the remap boundary", crashed)}
		}
		x = plan.Exchange(fault.StageRemap, d.FaultCycle, retry.MsgAttempts)
		retries = make([]pairRetry, len(flows))
	}

	var peak int64
	windowRetries := 0
	for wi, win := range wins {
		words := (flowStart[win.f1] - flowStart[win.f0]) * recWords
		peak = max(peak, words)
		for tries := 1; ; tries++ {
			var nfail int64
			for f := win.f0; f < win.f1; f++ {
				resends, backoff, ok := x.Resends(flows[f].Src, flows[f].Dst)
				if retries != nil {
					retries[f].Resends += resends
					retries[f].Backoff += backoff
				}
				if !ok {
					nfail++
				}
			}
			if nfail == 0 {
				break
			}
			if tries > retry.WindowRetries {
				return RemapResult{}, &RemapError{Failure: FailTransfer, Window: wi, Tries: tries, RolledBack: true,
					Detail: fmt.Sprintf("%d transfers failed after %d attempts per message", nfail, retry.MsgAttempts)}
			}
			windowRetries++
			d.Trace.Event("warn", "remap.window.retry",
				obs.Int("window", int64(wi)), obs.Int("failed", nfail), obs.Int("try", int64(tries)))
		}
		// The serial window loop is canonical order by construction: one
		// event per delivered window, in plan order.
		d.Trace.Event("info", "remap.window",
			obs.Int("window", int64(wi)), obs.Int("flows", int64(win.f1-win.f0)), obs.Int("words", words))
	}

	// chargeRemap takes the pairs that needed any recovery, in canonical
	// order.
	n := 0
	for f, r := range retries {
		if r.Resends > 0 || r.Backoff > 0 {
			retries[n] = pairRetry{Src: flows[f].Src, Dst: flows[f].Dst, Resends: r.Resends, Backoff: r.Backoff}
			n++
		}
	}
	res := chargeRemap(mdl, d.Exchange, d.P, flows, retries[:n], d.Trace)
	res.PeakWords = peak
	res.WindowRetries = windowRetries
	copy(d.owner, newOwner)
	return res, nil
}

// countFlows returns the canonical flow list of a remap from owner to
// newOwner over p ranks, both indexed by root element id: every (src,
// dst) pair some live element moves along, ascending by source then
// destination, with its element count. An element migrates when its root
// changes owner — its whole refinement tree moves with it (the paper's
// Wremap rationale), which is why the scan walks the element slab rather
// than the dual vertices. One pass counts into per-source lists of the
// destinations seen; a rank sends to few others, so the walk is short,
// and nothing is sized by the p² pairs that could carry a flow.
func countFlows(m *mesh.Mesh, owner, newOwner []int32, p int) []remap.Flow {
	head := make([]int32, p) // per source: its newest flow + 1, 0 for none
	var flows []remap.Flow
	var next []int32 // per flow: the source's next flow + 1, 0 at the end
	for i := range m.Elems {
		t := &m.Elems[i]
		if t.Dead {
			continue
		}
		src, dst := owner[t.Root], newOwner[t.Root]
		if src == dst {
			continue
		}
		k := head[src] - 1
		for k >= 0 && flows[k].Dst != dst {
			k = next[k] - 1
		}
		if k < 0 {
			k = int32(len(flows))
			flows = append(flows, remap.Flow{Src: src, Dst: dst})
			next = append(next, head[src])
			head[src] = k + 1
		}
		flows[k].Elems++
	}
	slices.SortFunc(flows, func(a, b remap.Flow) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return flows
}

// crashRanks returns the alive ranks fated by plan to die at the remap
// boundary of the current fault cycle, ascending, or nil when none is.
// Pure function of (plan, cycle, alive set). Two guards keep the run
// recoverable: no crashes are drawn with fewer than two survivors, and if
// every survivor is fated at once, the lowest-ranked one is spared (a
// total loss has no survivor to recover onto).
func (d *Dist) crashRanks(plan *fault.Plan) []int {
	if !plan.CrashEnabled() {
		return nil
	}
	alive := d.Alive()
	if len(alive) < 2 {
		return nil
	}
	var fated []int
	for _, r := range alive {
		if plan.Crashed(fault.StageRemap, d.FaultCycle, int(r)) {
			fated = append(fated, int(r))
		}
	}
	if len(fated) == len(alive) {
		fated = fated[1:]
	}
	return fated
}

// ChargeRemap prices a remap on the machine clock from its flows alone:
// the flows in canonical (Src, Dst) order, elements per flow, on p ranks
// under the exchange schedule x. It fills Moved, Sets, WordsMoved, the
// time decomposition PackTime, CommTime, RebuildTime, Total, and Setups /
// SetupTime. It is the one remap price: the executor charges every
// executed remap with it, and the balance pass prices a proposal with it
// before deciding, so an accepted remap's Total is the remap term the
// decision priced — bit for bit, on the fault-free path.
func ChargeRemap(mdl machine.Model, x machine.Exchange, p int, flows []remap.Flow) RemapResult {
	return chargeRemap(mdl, x, p, flows, nil, nil)
}

// chargeRemap is ChargeRemap with the executed exchange's retry counters
// and the trace the per-rank spans go to (nil for none).
//
// The windowed exchange is charged as one bulk-synchronous superstep
// (all sends, then all receives): windows are the retry unit of the
// exchange, not a change to the machine being modeled, which is what
// makes a fault-free executed remap ChargeRemap of its flows.
//
// The modeled volume uses the cost model's M words per element plus a
// small shared-structure term proportional to the number of flows
// (partition-boundary data is a small percentage and causes the slight
// perturbations the paper notes). One serial walk of the flows that exist
// fills the per-rank sums — a rank's float charges accumulate in
// ascending destination order, the canonical order of its flows — so the
// work is O(sets + p).
//
// When the exchange recovered injected faults, retries carries its
// per-pair counters in the same canonical order — every message is a
// flow's, so every record names a flow (one that does not is a bug and
// panics): each resent message counts into Retries and its flow's record
// words into RetryWords (every message of a pair is that flow's records),
// and the pair is charged Model.RetryTime (another MsgTime of the flow's
// modeled volume per resend, RetryBackoff per backoff unit) on the
// sending rank, inside the same send-phase superstep and right behind
// the flow's own pack charge — so retry cost lands on CommTime/Total
// exactly where a real sender would stall. A nil retries (the fault-free
// path, and every prediction) adds no terms at all.
//
// The wire itself — setups, volume, and under aggregated the receivers'
// drains — is charged by machine.ChargeFlows under the schedule, on top
// of each rank's pack + retry sum and inside the same superstep.
func chargeRemap(mdl machine.Model, x machine.Exchange, p int, flows []remap.Flow, retries []pairRetry, tr *obs.Trace) RemapResult {
	res := RemapResult{Sets: len(flows)}
	sendWords := make([]int64, p)
	recvWords := make([]int64, p)
	recvElems := make([]int64, p)
	packT := make([]float64, p)
	retryT := make([]float64, p)
	wire := make([]machine.Flow, len(flows))
	clk := machine.NewClock(p)
	k := 0 // cursor into retries
	for f, fl := range flows {
		src, dst := int(fl.Src), int(fl.Dst)
		words := flowWords(fl.Elems, mdl)
		wire[f] = machine.Flow{Src: fl.Src, Dst: fl.Dst, Words: words}
		res.Moved += fl.Elems
		sendWords[src] += words
		recvWords[dst] += words
		recvElems[dst] += fl.Elems
		pack := float64(words) * mdl.PackWord
		clk.Add(src, pack)
		packT[src] += pack
		if k < len(retries) && retries[k].Src == fl.Src && retries[k].Dst == fl.Dst {
			r := retries[k]
			res.Retries += r.Resends
			res.RetryWords += r.Resends * fl.Elems * recWords
			rt := mdl.RetryTime(r.Resends, r.Backoff, words)
			clk.Add(src, rt)
			retryT[src] += rt
			k++
		}
	}
	if k < len(retries) {
		panic(fmt.Sprintf("par: retry counters for %d->%d name no flow", retries[k].Src, retries[k].Dst))
	}
	for r := 0; r < p; r++ {
		res.WordsMoved += sendWords[r]
		res.PackTime = max(res.PackTime, packT[r])
		res.RetryTime = max(res.RetryTime, retryT[r])
	}
	ch := mdl.ChargeFlows(clk, x, wire)
	res.Setups = ch.Msgs
	res.SetupTime = ch.SetupTime
	var sendT []float64 // each rank's send superstep, read off the clock before the barrier
	if tr != nil {
		sendT = make([]float64, p)
		for r := range sendT {
			sendT[r] = clk.Rank(r)
		}
	}
	clk.Barrier()
	res.CommTime = clk.Elapsed() - res.PackTime
	for r := 0; r < p; r++ {
		clk.Add(r, float64(recvWords[r])*mdl.UnpackWord+float64(recvElems[r])*mdl.RebuildElem)
	}
	clk.Barrier()
	res.RebuildTime = clk.Elapsed() - res.CommTime - res.PackTime
	res.Total = clk.Elapsed()

	if tr != nil {
		traceRemapRanks(tr, mdl, &res, sendWords, sendT, recvWords, recvElems)
	}
	return res
}

// traceRemapRanks emits the executed remap's per-rank spans on the
// modeled timeline, based at the trace cursor (the caller advances the
// cursor past res.Total afterwards). It runs after the accounting loops
// over the per-rank arrays, so emission order and span contents are
// canonical. The send span covers a rank's send superstep — pack, retry
// and wire charges, sendT being its clock reading before the barrier (so
// under aggregated a rank that only receives shows its drain, words 0);
// the rebuild span starts at the superstep barrier (pack + comm elapsed)
// and covers the rank's unpack/rebuild charge.
func traceRemapRanks(tr *obs.Trace, mdl machine.Model, res *RemapResult, sendWords []int64, sendT []float64, recvWords, recvElems []int64) {
	base := tr.Now()
	rebuildAt := base + res.PackTime + res.CommTime
	for r := range sendT {
		if sendT[r] > 0 {
			tr.Span(int32(r), "remap.send", base, sendT[r], obs.Int("words", sendWords[r]))
		}
		if dur := float64(recvWords[r])*mdl.UnpackWord + float64(recvElems[r])*mdl.RebuildElem; dur > 0 {
			tr.Span(int32(r), "remap.rebuild", rebuildAt, dur, obs.Int("elems", recvElems[r]))
		}
	}
}

// flowWords is the modeled volume of a flow of elems elements: the cost
// model's M words per element plus the shared-structure perturbation ≈ 3%.
func flowWords(elems int64, mdl machine.Model) int64 {
	words := elems * int64(mdl.ElemWords)
	return words + words/32
}
