package par

import (
	"fmt"

	"plum/internal/comm"
	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/obs"
	"plum/internal/remap"
)

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
	// PeakWords is the high-water mark of the host-side payload buffer,
	// in record words (Moved × RecordWords is the total): the largest
	// window the executor packed, strictly below the total whenever more
	// than one flow moves. The figure is computed from the canonical flow
	// layout, never from live goroutine scheduling, so it is
	// deterministic at any worker count.
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
	// Retries and RetryWords count the extra physical frames (and their
	// payload words, in record words on the wire) the exchange sent
	// recovering injected faults; WindowRetries the window
	// re-executions. RetryTime is the slowest rank's modeled recovery
	// charge — resent messages at MsgTime plus exponential-backoff units
	// at Model.RetryBackoff — which is also folded into CommTime/Total.
	// All stay zero without an enabled fault plan.
	Retries, RetryWords int64
	WindowRetries       int
	RetryTime           float64
}

// ExecuteRemap migrates element trees whose dual vertices change owner
// under newOwner. Real payloads (element records) are exchanged between
// goroutine ranks over the comm runtime and verified for conservation; the
// machine model charges pack, transfer, and rebuild costs. On return the
// ownership map is updated.
//
// Following the paper's experimental methodology, the data-structure
// rebuild is charged to the model (RebuildElem per received element)
// rather than re-linking the shared ground-truth mesh, which stays
// authoritative — "all appropriate mesh objects are sent to their new host
// processor, accurately modeling the communication phase".
//
// The payload streams under the adaptive window budget (see
// windowBudget): flows are packed, exchanged, and verified one window at
// a time, so the host holds at most one window of records
// (RemapResult.PeakWords), while the machine model charges the paper's
// single bulk-synchronous exchange. A *RemapError names the failing
// window, and with Dist.Trace set each verified window leaves a
// remap.window event (and each window retry a remap.window.retry).
func (d *Dist) ExecuteRemap(newOwner []int32, mdl machine.Model) (RemapResult, error) {
	return d.executeRemap(newOwner, mdl, 0, d.Faults)
}

// ExecuteRemapRecovery migrates the elements of crashed ranks onto the
// survivors after a FailCrash rollback: the same streamed exchange as
// ExecuteRemap — same canonical flow layout and windows, same
// machine-model charges via ChargeRemap — run without the
// fault plan. Recovery is the repair path, not another fault surface:
// letting the plan re-draw crash or message fates here could cascade a
// recovery into another rollback forever, so the modeled recovery runs
// clean. The dead ranks' outgoing flows model the survivors replaying
// those elements from the cycle checkpoint's replica (in process, the
// dead rank's goroutine serves its checkpointed records); their cost is
// charged like any other flow, which is exactly the modeled price of
// re-sourcing the lost subgrid.
func (d *Dist) ExecuteRemapRecovery(newOwner []int32, mdl machine.Model) (RemapResult, error) {
	return d.executeRemap(newOwner, mdl, 0, nil)
}

// executeRemap is the remap executor behind both entry points. budget
// bounds a window's payload in record words (≤ 0 = adaptive); plan is the
// fault plan, nil or zero-rate for a fault-free exchange.
//
// The migrating elements are indexed by the CSR flow scatter of
// collectFlowIndex at the Dist's worker knob: flows are laid out in
// canonical (src, dst) order and elements in slab order within a flow.
// planWindows groups consecutive flows under the budget, and each window
// is packed into the reused buffer, exchanged for real, and verified flow
// by flow against the plan before the next is admitted — so no more than
// one window of payload ever exists on the host. The window layout is
// computed from the flow offsets alone, never from worker scheduling, and
// the modeled times are float sums in canonical flow order, so the
// payload bytes, the owner array and the whole RemapResult are
// byte-identical at every worker count, and identical across budgets up
// to PeakWords.
//
// Ownership flips once, after the last window verifies and the
// conservation check passes, so every failure leaves it untouched. Every
// exchange rides comm's framed transport. An enabled plan installs its
// fault hook: a window whose transfers failed is re-exchanged up to
// Retry.WindowRetries times, and exhausted retries (or structural
// failures) return a *RemapError with RolledBack set. Without one the
// transport draws no fates and keeps no per-pair state.
//
// Every structure the executor builds is sized by the slab, the moved
// elements, the flows that exist or P — the flow index, the window plan,
// the wire exchange, the transport's per-pair state and the accounting
// all walk the flow list, never the P² pairs that could carry one.
// The communicator is the Dist's own, reset per remap, and a window's
// frames are cut from one slab reserved for it, so the executor's
// allocations are a fixed set of buffers per remap and one slab per window
// try — none per message and none per rank.
func (d *Dist) executeRemap(newOwner []int32, mdl machine.Model, budget int64, plan *fault.Plan) (RemapResult, error) {
	if len(newOwner) != len(d.owner) {
		return RemapResult{}, fmt.Errorf("par: newOwner has %d entries, want %d", len(newOwner), len(d.owner))
	}
	if !plan.Enabled() {
		plan = nil
	}
	m := d.M
	p := d.P
	fi := collectFlowIndex(m, d.owner, newOwner, p, EffectiveWorkers(len(m.Elems), d.Workers))
	moved := int64(len(fi.elems))

	// Per-rank verified-element and failed-transfer counts of one window
	// try. Each goroutine rank touches only its own slots and the Runs are
	// sequential, so there is no contention.
	counts := make([]int64, 2*p)
	wp := &winPlan{fi: &fi, recv: counts[:p], failCount: counts[p:]}
	exchange := wp.exchange // bound once: a window's Run allocates nothing

	w := d.world
	if w == nil {
		w = comm.NewWorld(p)
		d.world = w
	} else {
		w.Reset()
	}
	w.SetDeadline(d.StageDeadline)
	retry := d.Retry.Normalize()
	if plan != nil {
		w.SetFaults(plan.Hook(fault.StageRemap, d.FaultCycle), retry.MsgAttempts)
		// Crash fates are stage-scoped, drawn once per balance cycle: the
		// fated ranks die at the first window's boundary. A crash poisons
		// the world and aborts without retries (there is no rank to retry
		// with); the caller recovers by remapping onto the survivors.
		wp.crash = d.crashMask(plan)
	}

	wins := planWindows(fi.flowStart, windowBudget(fi.flowStart, budget))
	var peak int64
	for _, win := range wins {
		peak = max(peak, (fi.flowStart[win.f1]-fi.flowStart[win.f0])*recWords)
	}
	buf := make([]int64, peak) // reused by every window
	var recvTotal int64
	windowRetries := 0
	for wi, win := range wins {
		words := (fi.flowStart[win.f1] - fi.flowStart[win.f0]) * recWords
		wp.f0, wp.f1, wp.buf = win.f0, win.f1, buf[:words]
		fi.packRange(m, win.f0, win.f1, wp.buf, d.Workers)
		// Verification is plan-exact on every path: a received flow must
		// match the plan's record count, so torn or misrouted windows fail
		// here, not at the final conservation check.
		for tries := 1; ; tries++ {
			clear(counts)
			w.Reserve(win.f1-win.f0, words)
			if err := w.Run(exchange); err != nil {
				d.world = nil // a failed Run poisons its world
				return RemapResult{}, remapErrFrom(err, wi, tries)
			}
			var nfail int64
			for _, f := range wp.failCount {
				nfail += f
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
		for _, n := range wp.recv {
			recvTotal += n
		}
		wp.crash = nil // only the first window carries the mask
		// The serial window loop is canonical order by construction: one
		// event per verified window, in plan order.
		d.Trace.Event("info", "remap.window",
			obs.Int("window", int64(wi)), obs.Int("flows", int64(win.f1-win.f0)), obs.Int("words", words))
	}
	if recvTotal != moved {
		return RemapResult{}, &RemapError{Failure: FailConservation, Window: -1, Tries: 1, RolledBack: true,
			Detail: fmt.Sprintf("moved %d elements but received %d", moved, recvTotal)}
	}

	res := chargeRemap(mdl, d.Exchange, p, fi.flows, w.RetryCounters(), d.Trace)
	res.PeakWords = peak
	res.WindowRetries = windowRetries
	copy(d.owner, newOwner)
	return res, nil
}

// crashMask returns the per-rank mask of the alive ranks fated by plan to
// die at the remap boundary of the current fault cycle — the crash mask
// the executor injects — or nil when none is. Pure function of (plan,
// cycle, alive set): byte-identical at any worker count. Two guards keep
// the run recoverable: no crashes are drawn with fewer than two
// survivors, and if every survivor is fated at once, the lowest-ranked
// one is spared (a total loss has no survivor to recover onto).
func (d *Dist) crashMask(plan *fault.Plan) []bool {
	if !plan.CrashEnabled() {
		return nil
	}
	alive := d.Alive()
	if len(alive) < 2 {
		return nil
	}
	var mask []bool
	fated := 0
	for _, r := range alive {
		if plan.Crashed(fault.StageRemap, d.FaultCycle, int(r)) {
			if mask == nil {
				mask = make([]bool, d.P)
			}
			mask[r] = true
			fated++
		}
	}
	if fated == len(alive) {
		mask[alive[0]] = false
	}
	return mask
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
// Every window budget charges the same bulk-synchronous superstep model
// (all sends, then all receives): windowing changes how the host
// materializes and exchanges the payload, not the machine being modeled,
// which is what keeps the RemapResult byte-identical across budgets.
//
// The modeled volume uses the cost model's M words per element plus a
// small shared-structure term proportional to the number of flows
// (partition-boundary data is a small percentage and causes the slight
// perturbations the paper notes). One serial walk of the flows that exist
// fills the per-rank sums — a rank's float charges accumulate in
// ascending destination order, the canonical order of its stripe — so the
// work is O(sets + p) and the result cannot depend on the worker count
// (PredictRemapOps charges this phase serially).
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
func chargeRemap(mdl machine.Model, x machine.Exchange, p int, flows []remap.Flow, retries []comm.PairRetry, tr *obs.Trace) RemapResult {
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
// cursor past res.Total afterwards). It runs serially after the chunked
// accounting loops over per-rank arrays whose values are bit-identical
// at every worker count, so emission order and span contents are
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
