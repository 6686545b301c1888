package par

import (
	"fmt"
	"math"

	"plum/internal/comm"
	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/obs"
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
	// window the executor packed. Under the whole-payload budget that is
	// the total; under the streaming budget it is strictly below the
	// total on multi-flow workloads. The figure is computed from the
	// canonical flow layout, never from live goroutine scheduling, so it
	// is deterministic at any worker count.
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
	// Ops is the abstract work accounting of the scatter, pack, and
	// unpack phases, equal to PredictRemapOps of the executed quantities:
	// Total is worker-invariant, Crit the critical-path share at the
	// effective worker count actually used (Crit == Total on the serial
	// fallback below SerialCutoff elements).
	Ops machine.Ops
	// Retries and RetryWords count the extra physical frames (and their
	// payload words, in record words on the wire) the reliable exchange
	// sent recovering injected faults; WindowRetries the window
	// re-executions. RetryTime is the slowest rank's modeled recovery
	// charge — resent messages at MsgTime plus exponential-backoff units
	// at Model.RetryBackoff — which is also folded into CommTime/Total.
	// All stay zero without an enabled fault plan.
	Retries, RetryWords int64
	WindowRetries       int
	RetryTime           float64
}

// wholePayload is the window budget under which every flow fits one
// window: the bulk-synchronous exchange of ExecuteRemap.
const wholePayload = math.MaxInt64

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
// This entry runs the executor with a whole-payload window: every record
// is packed before anything is exchanged, PeakWords equals the total
// payload, the exchange is one commit unit, and a *RemapError carries
// Window -1.
func (d *Dist) ExecuteRemap(newOwner []int32, mdl machine.Model) (RemapResult, error) {
	return d.executeRemap(newOwner, mdl, wholePayload, d.Faults)
}

// ExecuteRemapStreaming is ExecuteRemap under the adaptive window budget
// (see windowBudget): flows are packed, exchanged, and verified one window
// at a time, so peak payload memory (RemapResult.PeakWords) is the largest
// window instead of the whole record buffer. Everything else in the result
// — payload bytes on the wire, owner array, modeled times, op accounting —
// is byte-identical to ExecuteRemap at any worker count. A *RemapError
// names the failing window, and with Dist.Trace set each window leaves a
// remap.window (or, under a fault plan, remap.window.commit / .retry)
// event.
func (d *Dist) ExecuteRemapStreaming(newOwner []int32, mdl machine.Model) (RemapResult, error) {
	return d.executeRemap(newOwner, mdl, 0, d.Faults)
}

// ExecuteRemapRecovery migrates the elements of crashed ranks onto the
// survivors after a FailCrash rollback: the same whole-payload exchange as
// ExecuteRemap — same canonical flow layout, same machine-model charges
// via accountRemap/ChargeFlows — run without the fault plan. Recovery is
// the repair path, not another fault surface: letting the plan re-draw
// crash or message fates here could cascade a recovery into another
// rollback forever, so the modeled recovery runs clean. The dead
// ranks' outgoing flows model the survivors replaying those elements
// from the cycle checkpoint's replica (in process, the dead rank's
// goroutine serves its checkpointed records); their cost is charged like
// any other flow, which is exactly the modeled price of re-sourcing the
// lost subgrid.
func (d *Dist) ExecuteRemapRecovery(newOwner []int32, mdl machine.Model) (RemapResult, error) {
	return d.executeRemap(newOwner, mdl, wholePayload, nil)
}

// executeRemap is the one remap executor behind the three entry points.
// budget bounds a window's payload in record words (≤ 0 = adaptive,
// wholePayload = a single window); plan is the fault plan, nil or
// zero-rate for the plain exchange.
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
// payload bytes, the owner array and the whole RemapResult except
// Ops.Crit/MemCrit are byte-identical at every worker count, and
// identical across budgets up to PeakWords.
//
// With an enabled plan the exchange runs transactionally over the
// reliable transport: the owner array is checkpointed up front, each
// verified window immediately commits its flows' ownership, a window
// whose transfers failed is re-exchanged up to Retry.WindowRetries times,
// and exhausted retries (or structural failures) roll every committed
// window back to the checkpoint and return a *RemapError with RolledBack
// set. Without one the exchange runs over the plain transport, draws no
// fates, and ownership flips once, after the last window.
//
// Every structure the executor builds is sized by the slab, the moved
// elements, the flows that exist or P — the flow index, the window plan,
// the wire exchange, the transport's per-pair state and the accounting
// all walk the flow list, never the P² pairs that could carry one.
func (d *Dist) executeRemap(newOwner []int32, mdl machine.Model, budget int64, plan *fault.Plan) (RemapResult, error) {
	if len(newOwner) != len(d.owner) {
		return RemapResult{}, fmt.Errorf("par: newOwner has %d entries, want %d", len(newOwner), len(d.owner))
	}
	if !plan.Enabled() {
		plan = nil
	}
	m := d.M
	p := d.P
	fi := collectFlowIndex(m, d.rootDual, d.owner, newOwner, p, EffectiveWorkers(len(m.Elems), d.Workers))
	moved := int64(len(fi.elems))
	res := RemapResult{
		Moved: moved,
		Sets:  len(fi.flows),
		Ops:   PredictRemapOps(len(m.Elems), moved, len(fi.flows), p, d.Workers),
	}
	// The whole-payload exchange is not a stream of windows: its errors
	// carry Window -1 and it leaves no remap.window events.
	streaming := budget != wholePayload
	event := "remap.window"
	if plan != nil {
		event = "remap.window.commit"
	}

	w := comm.NewWorld(p)
	w.SetDeadline(d.StageDeadline)
	retry := d.Retry.Normalize()
	var checkpoint []int32
	var crash []bool
	if plan != nil {
		checkpoint = append([]int32(nil), d.owner...)
		w.SetFaults(plan.Hook(fault.StageRemap, d.FaultCycle), retry.MsgAttempts)
		// Crash fates are stage-scoped, drawn once per balance cycle: the
		// fated ranks die at the first window's boundary, before anything
		// has committed. A crash poisons the world and aborts without
		// retries (there is no rank to retry with); the caller recovers by
		// remapping onto the survivors.
		crash = d.crashMask(plan)
	}
	rollback := func(e *RemapError) (RemapResult, error) {
		if checkpoint != nil {
			d.setOwners(checkpoint)
		}
		return RemapResult{}, e
	}

	// Per-rank verified-element and failed-transfer counts of one window
	// try. Each goroutine rank touches only its own slots and the Runs are
	// sequential, so there is no contention.
	counts := make([]int64, 2*p)
	recv, failed := counts[:p], counts[p:]
	var recvTotal int64
	var buf []int64
	for wi, win := range planWindows(fi.flowStart, windowBudget(fi.flowStart, budget)) {
		id := -1
		if streaming {
			id = wi
		}
		base := fi.flowStart[win.f0]
		words := (fi.flowStart[win.f1] - base) * recWords
		res.PeakWords = max(res.PeakWords, words)
		if int64(cap(buf)) < words {
			buf = make([]int64, words)
		}
		bufW := buf[:words]
		fi.packRange(m, d.rootDual, win.f0, win.f1, bufW, d.Workers)
		// Verification is plan-exact on every path: a received flow must
		// match the plan's record count, so torn or misrouted windows fail
		// here, not at the final conservation check.
		wp := &winPlan{fi: &fi, f0: win.f0, f1: win.f1, buf: bufW}
		for tries := 1; ; tries++ {
			clear(counts)
			if err := exchangeWindow(w, wp, plan != nil, recv, failed, crash); err != nil {
				return rollback(remapErrFrom(err, id, tries))
			}
			var nfail int64
			for _, f := range failed {
				nfail += f
			}
			if nfail == 0 {
				break
			}
			if tries > retry.WindowRetries {
				return rollback(&RemapError{Failure: FailTransfer, Window: id, Tries: tries, RolledBack: true,
					Detail: fmt.Sprintf("%d transfers failed after %d attempts per message", nfail, retry.MsgAttempts)})
			}
			res.WindowRetries++
			if streaming && d.Trace != nil {
				d.Trace.Event("warn", "remap.window.retry",
					obs.Int("window", int64(wi)), obs.Int("failed", nfail), obs.Int("try", int64(tries)))
			}
		}
		for _, n := range recv {
			recvTotal += n
		}
		crash = nil // only the first window carries the mask
		if plan != nil {
			// Commit the window: every element in its flows now belongs to
			// the flow's destination rank. Writes are idempotent per dual
			// vertex and cover exactly the vertices whose owner changes.
			for f := win.f0; f < win.f1; f++ {
				for _, ei := range fi.elems[fi.flowStart[f]:fi.flowStart[f+1]] {
					d.setOwner(m.Elems[ei].Root, fi.flows[f].dst)
				}
			}
		}
		if streaming && d.Trace != nil {
			// The serial window loop is canonical order by construction:
			// one event per window, in plan order.
			d.Trace.Event("info", event,
				obs.Int("window", int64(wi)), obs.Int("flows", int64(win.f1-win.f0)), obs.Int("words", words))
		}
	}
	if recvTotal != moved {
		return rollback(&RemapError{Failure: FailConservation, Window: -1, Tries: 1, RolledBack: true,
			Detail: fmt.Sprintf("moved %d elements but received %d", moved, recvTotal)})
	}

	var retries []comm.PairRetry
	if plan != nil {
		for _, s := range w.RankStats() {
			res.Retries += s.Retries
			res.RetryWords += s.RetryWords
		}
		retries = w.RetryCounters()
	}
	d.accountRemap(&fi, mdl, &res, retries)
	// Without a plan ownership flips here; with one the windows already
	// committed it, and after the last the map equals newOwner.
	d.setOwners(newOwner)
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

// accountRemap fills the machine-model side of a RemapResult — WordsMoved,
// PackTime, CommTime, RebuildTime, Total — from the canonical flow list.
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
// When the reliable exchange recovered injected faults, retries carries
// its per-pair counters in the same canonical order — every message is a
// flow's, so every record names a flow (one that does not is a bug and
// panics): each resent message is charged another MsgTime of the flow's
// modeled volume and each backoff unit Model.RetryBackoff, on the sending
// rank, inside the same send-phase superstep and right behind the flow's
// own pack charge — so retry cost lands on CommTime/Total exactly where a
// real sender would stall. A nil retries (the fault-free path) adds no
// terms at all.
//
// The wire itself — setups, volume, and under aggregated the receivers'
// drains — is charged by machine.ChargeFlows under the Dist's schedule,
// on top of each rank's pack + retry sum and inside the same superstep.
func (d *Dist) accountRemap(fi *flowIndex, mdl machine.Model, res *RemapResult, retries []comm.PairRetry) {
	p := d.P
	sendWords := make([]int64, p)
	recvWords := make([]int64, p)
	recvElems := make([]int64, p)
	packT := make([]float64, p)
	retryT := make([]float64, p)
	wire := make([]machine.Flow, len(fi.flows))
	clk := machine.NewClock(p)
	k := 0 // cursor into retries
	for f, fl := range fi.flows {
		src, dst := int(fl.src), int(fl.dst)
		elems := fi.flowStart[f+1] - fi.flowStart[f]
		words := flowWords(elems, mdl)
		wire[f] = machine.Flow{Src: fl.src, Dst: fl.dst, Words: words}
		sendWords[src] += words
		recvWords[dst] += words
		recvElems[dst] += elems
		pack := float64(words) * mdl.PackWord
		clk.Add(src, pack)
		packT[src] += pack
		if k < len(retries) && retries[k].Src == fl.src && retries[k].Dst == fl.dst {
			r := retries[k]
			var rt float64
			if r.Resends > 0 {
				rt += float64(r.Resends) * mdl.MsgTime(words)
			}
			if r.Backoff > 0 {
				rt += float64(r.Backoff) * mdl.RetryBackoff
			}
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
	ch := mdl.ChargeFlows(clk, d.Exchange, wire)
	res.Setups = ch.Msgs
	res.SetupTime = ch.SetupTime
	var sendT []float64 // each rank's send superstep, read off the clock before the barrier
	if d.Trace != nil {
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

	if d.Trace != nil {
		d.traceRemapRanks(mdl, res, sendWords, sendT, recvWords, recvElems)
	}
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
func (d *Dist) traceRemapRanks(mdl machine.Model, res *RemapResult, sendWords []int64, sendT []float64, recvWords, recvElems []int64) {
	base := d.Trace.Now()
	rebuildAt := base + res.PackTime + res.CommTime
	for r := 0; r < d.P; r++ {
		if sendT[r] > 0 {
			d.Trace.Span(int32(r), "remap.send", base, sendT[r], obs.Int("words", sendWords[r]))
		}
		if dur := float64(recvWords[r])*mdl.UnpackWord + float64(recvElems[r])*mdl.RebuildElem; dur > 0 {
			d.Trace.Span(int32(r), "remap.rebuild", rebuildAt, dur, obs.Int("elems", recvElems[r]))
		}
	}
}

// flowWords is the modeled volume of a flow of elems elements: the cost
// model's M words per element plus the shared-structure perturbation ≈ 3%.
func flowWords(elems int64, mdl machine.Model) int64 {
	words := elems * int64(mdl.ElemWords)
	return words + words/32
}
