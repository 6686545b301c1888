package par

import (
	"fmt"

	"plum/internal/chunk"
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
	// in record words (Moved × RecordWords is the total). The
	// bulk-synchronous executor materializes every flow at once, so it
	// reports the total; the streaming executor packs, exchanges, and
	// verifies one window of flows at a time, so its peak is the largest
	// window — strictly below the total on multi-flow workloads. The
	// figure is computed from the canonical flow layout, never from live
	// goroutine scheduling, so it is deterministic at any worker count.
	PeakWords int64
	// PackTime, CommTime, RebuildTime decompose the modeled remapping
	// overhead; Total is the slowest-rank end-to-end time.
	PackTime, CommTime, RebuildTime, Total float64
	// Setups counts the message setups of the base exchange under the
	// Dist's schedule — one per message of the schedule, so flat pays one
	// per nonempty flow while aggregated and hierarchical pay far fewer at
	// high P (retransmissions are counted in Retries, not here). SetupTime
	// is their summed modeled setup charge: the component of CommTime the
	// exchange schedule exists to shrink, reported separately so callers
	// never fold it silently into volume time.
	Setups    int64
	SetupTime float64
	// IntraWords and InterWords split the exchanged wire volume by link
	// level under the model's node topology; on a flat machine all volume
	// is InterWords. The hierarchical schedule forwards words over both an
	// intra-node hop and an inter-node hop, so their sum can exceed
	// WordsMoved — that forwarding is the price of the setup savings.
	IntraWords, InterWords int64
	// Ops is the abstract work accounting of the scatter, pack, and
	// unpack phases, equal to PredictRemapOps of the executed quantities:
	// Total is worker-invariant, Crit the critical-path share at the
	// effective worker count actually used (Crit == Total on the serial
	// fallback below SerialCutoff elements).
	Ops Ops
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

// ExecuteRemap migrates element trees whose dual vertices change owner
// under newOwner. Real payloads (element records) are exchanged between
// goroutine ranks over the comm runtime and verified for conservation; the
// machine model charges pack, transfer, and rebuild costs. On return the
// ownership map is updated.
//
// The payload collection is the CSR flow scatter of collectFlows, run at
// the Dist's worker knob: flows are laid out in canonical (src, dst)
// order and elements in slab order within a flow, so the record buffer,
// the modeled times (float summation order is fixed by the layout, not by
// map iteration), and the whole RemapResult except Ops.Crit/MemCrit are
// byte-identical at every worker count.
//
// Following the paper's experimental methodology, the data-structure
// rebuild is charged to the model (RebuildElem per received element)
// rather than re-linking the shared ground-truth mesh, which stays
// authoritative — "all appropriate mesh objects are sent to their new host
// processor, accurately modeling the communication phase".
//
// This is the bulk-synchronous executor: the whole record buffer is
// materialized before anything is exchanged, so PeakWords equals the
// total payload. ExecuteRemapStreaming produces the identical result with
// one window of payload in flight at a time.
//
// With Dist.Faults enabled the exchange runs transactionally over the
// reliable transport: the whole exchange is one commit unit, failed
// exchanges are re-run up to Retry.WindowRetries times, and exhausted
// retries return a *RemapError with RolledBack set and the ownership map
// untouched. Without a plan the legacy plain exchange runs byte-identical
// to pre-fault behavior.
func (d *Dist) ExecuteRemap(newOwner []int32, mdl machine.Model) (RemapResult, error) {
	if len(newOwner) != len(d.owner) {
		return RemapResult{}, fmt.Errorf("par: newOwner has %d entries, want %d", len(newOwner), len(d.owner))
	}
	m := d.M
	p := d.P
	ew := EffectiveWorkers(len(m.Elems), d.Workers)
	pl := collectFlows(m, d.rootDual, d.owner, newOwner, p, ew)

	res := RemapResult{
		Moved:     pl.moved,
		Sets:      pl.sets,
		PeakWords: pl.moved * recWords, // the whole buffer is in flight at once
		Ops:       PredictRemapOps(len(m.Elems), pl.moved, pl.sets, p, d.Workers),
	}

	// Exchange for real over the message-passing runtime and verify
	// conservation on the receive side. Each rank's send buffers are
	// zero-copy subslices of the flat record buffer: rank src owns the
	// contiguous flow range [src·p, (src+1)·p). The whole table is one
	// window of the Dist's exchange schedule.
	plan := &winPlan{f0: 0, f1: p * p, p: p, flowStart: pl.flowStart, rec: pl.flowRecs}
	if !d.Faults.Enabled() {
		w := comm.NewWorld(p)
		w.SetDeadline(d.StageDeadline)
		recvCount := make([]int64, p)
		if err := exchangeWindow(w, d.Exchange, mdl.Topo, plan, false, recvCount, nil, nil); err != nil {
			return RemapResult{}, remapErrFrom(err, -1, 1)
		}
		var recvTotal int64
		for _, n := range recvCount {
			recvTotal += n
		}
		if recvTotal != pl.moved {
			return RemapResult{}, &RemapError{Failure: FailConservation, Window: -1, Tries: 1, RolledBack: true,
				Detail: fmt.Sprintf("moved %d elements but received %d", pl.moved, recvTotal)}
		}
		d.accountRemap(pl.flowStart, mdl, &res, nil)
		d.setOwners(newOwner)
		return res, nil
	}

	// Transactional path: the whole exchange is one window. Crash fates
	// are drawn once per stage — the mask kills its ranks at the window
	// boundary of the first try; a crash aborts the transaction without
	// retries (there is no rank to retry with), and the caller recovers
	// by remapping onto the survivors.
	retry := d.Retry.Normalize()
	crash := d.crashMask(d.crashedRanks())
	w := comm.NewWorld(p)
	w.SetDeadline(d.StageDeadline)
	w.SetFaults(d.Faults.Hook(fault.StageRemap, d.FaultCycle), retry.MsgAttempts)
	var recvTotal int64
	tries := 0
	for {
		tries++
		recvCount := make([]int64, p)
		failCount := make([]int64, p)
		if err := exchangeWindow(w, d.Exchange, mdl.Topo, plan, true, recvCount, failCount, crash); err != nil {
			return RemapResult{}, remapErrFrom(err, -1, tries)
		}
		var nfail int64
		for _, f := range failCount {
			nfail += f
		}
		if nfail == 0 {
			for _, n := range recvCount {
				recvTotal += n
			}
			break
		}
		if tries > retry.WindowRetries {
			return RemapResult{}, &RemapError{Failure: FailTransfer, Window: -1, Tries: tries, RolledBack: true,
				Detail: fmt.Sprintf("%d transfers failed after %d attempts per message", nfail, retry.MsgAttempts)}
		}
	}
	res.WindowRetries = tries - 1
	if recvTotal != pl.moved {
		return RemapResult{}, &RemapError{Failure: FailConservation, Window: -1, Tries: tries, RolledBack: true,
			Detail: fmt.Sprintf("moved %d elements but received %d", pl.moved, recvTotal)}
	}
	for _, s := range w.RankStats() {
		res.Retries += s.Retries
		res.RetryWords += s.RetryWords
	}
	resends, backoff := w.RetryCounters()
	d.accountRemap(pl.flowStart, mdl, &res, &retryCharges{resends: resends, backoff: backoff})
	d.setOwners(newOwner)
	return res, nil
}

// ExecuteRemapRecovery migrates the elements of crashed ranks onto the
// survivors after a FailCrash rollback: the same bulk exchange as
// ExecuteRemap — same canonical flow layout, same machine-model charges
// via accountRemap/ChargeFlows — run with the fault plan masked off.
// Recovery is the repair path, not another fault surface: letting the
// plan re-draw crash or message fates here could cascade a recovery into
// another rollback forever, so the modeled recovery runs clean. The dead
// ranks' outgoing flows model the survivors replaying those elements
// from the cycle checkpoint's replica (in process, the dead rank's
// goroutine serves its checkpointed records); their cost is charged like
// any other flow, which is exactly the modeled price of re-sourcing the
// lost subgrid.
func (d *Dist) ExecuteRemapRecovery(newOwner []int32, mdl machine.Model) (RemapResult, error) {
	saved := d.Faults
	d.Faults = nil
	defer func() { d.Faults = saved }()
	return d.ExecuteRemap(newOwner, mdl)
}

// retryCharges carries the per-(src,dst) recovery counters of one reliable
// exchange (comm.World.RetryCounters) into the machine-model accounting.
type retryCharges struct {
	resends, backoff []int64
}

// accountRemap fills the machine-model side of a RemapResult — WordsMoved,
// PackTime, CommTime, RebuildTime, Total — from the canonical flow layout.
// Both executors charge the same bulk-synchronous superstep model (all
// sends, then all receives): the streaming executor changes how the host
// materializes and exchanges the payload, not the machine being modeled,
// which is what keeps its RemapResult byte-identical to the bulk path.
//
// The modeled volume uses the cost model's M words per element plus a
// small shared-structure term proportional to the number of flows
// (partition-boundary data is a small percentage and causes the slight
// perturbations the paper notes). The pack side is chunked over source
// ranks and the unpack side over destination ranks: every rank's flows
// form a contiguous stripe of the canonical layout handled by exactly one
// chunk, so the per-rank float sums are bit-identical at every worker
// count. The worker count is resolved against the p² flow table these
// loops actually walk — at practical rank counts that is far below
// SerialCutoff, so chunk.For takes its inline single-chunk path and no
// goroutines are spawned for a few thousand scalar adds (PredictRemapOps
// charges this phase serially).
//
// When the reliable exchange recovered injected faults, rc carries its
// per-pair retry counters: each resent message is charged another MsgTime
// of the pair's modeled volume and each backoff unit Model.RetryBackoff,
// on the sending rank, inside the same send-phase superstep — so retry
// cost lands on CommTime/Total exactly where a real sender would stall.
// The per-pair counters come from deterministic single-writer slots, so
// the charges are byte-identical at any worker count. A nil rc (the
// fault-free path) adds no terms at all, keeping the float streams
// bit-exact with pre-fault output.
func (d *Dist) accountRemap(flowStart []int64, mdl machine.Model, res *RemapResult, rc *retryCharges) {
	p := d.P
	flat := d.Exchange == machine.ExchangeFlat
	acctW := EffectiveWorkers(p*p, d.Workers)
	sendWords := make([]int64, p)
	recvWords := make([]int64, p)
	recvElems := make([]int64, p)
	packT := make([]float64, p)
	sendT := make([]float64, p)
	retryT := make([]float64, p)
	// Per-source setup accounting of the flat schedule; the aggregated and
	// hierarchical schedules report theirs from machine.ChargeFlows below.
	// These are per-src arrays, not res fields, because the chunked loop
	// may run on several workers.
	setups := make([]int64, p)
	setupT := make([]float64, p)
	intraW := make([]int64, p)
	interW := make([]int64, p)
	chunk.For(p, acctW, func(_, lo, hi int) {
		for src := lo; src < hi; src++ {
			for dst := 0; dst < p; dst++ {
				elems := flowStart[src*p+dst+1] - flowStart[src*p+dst]
				var words int64
				if elems > 0 {
					words = elems * int64(mdl.ElemWords)
					words += words / 32 // shared-structure perturbation ≈ 3%
					sendWords[src] += words
					if flat {
						// The legacy charge, one expression per flow (with
						// CommTime ≡ MsgTime on a flat topology), so the
						// float stream is bit-identical to the pre-exchange
						// path.
						sendT[src] += float64(words)*mdl.PackWord + mdl.CommTime(src, dst, words)
						setups[src]++
						setupT[src] += mdl.SetupTime(src, dst)
						if mdl.Topo.SameNode(src, dst) {
							intraW[src] += words
						} else {
							interW[src] += words
						}
					} else {
						// Combined schedules charge the wire through
						// ChargeFlows; only the pack cost is per flow.
						sendT[src] += float64(words) * mdl.PackWord
					}
					packT[src] += float64(words) * mdl.PackWord
				}
				if rc != nil {
					// Empty flows still ride the wire as zero-payload
					// frames, so their retries cost a setup each. Under the
					// combined schedules the retry counters sit on the
					// physical pairs of the relay (member→leader,
					// leader→leader, leader→member); the modeled charge
					// prices them at the pair's link rate over the pair's
					// planned flow volume, which the flat schedule reduces
					// to the legacy MsgTime expression.
					pair := src*p + dst
					var rt float64
					if n := rc.resends[pair]; n > 0 {
						rt += float64(n) * mdl.CommTime(src, dst, words)
					}
					if b := rc.backoff[pair]; b > 0 {
						rt += float64(b) * mdl.RetryBackoff
					}
					if rt > 0 {
						sendT[src] += rt
						retryT[src] += rt
					}
				}
			}
		}
	})
	chunk.For(p, acctW, func(_, lo, hi int) {
		for dst := lo; dst < hi; dst++ {
			for src := 0; src < p; src++ {
				elems := flowStart[src*p+dst+1] - flowStart[src*p+dst]
				if elems == 0 {
					continue
				}
				words := elems * int64(mdl.ElemWords)
				words += words / 32
				recvWords[dst] += words
				recvElems[dst] += elems
			}
		}
	})

	clk := machine.NewClock(p)
	for r := 0; r < p; r++ {
		res.WordsMoved += sendWords[r]
		clk.Add(r, sendT[r])
		res.PackTime = max(res.PackTime, packT[r])
		res.RetryTime = max(res.RetryTime, retryT[r])
	}
	if flat {
		for r := 0; r < p; r++ {
			res.Setups += setups[r]
			res.SetupTime += setupT[r]
			res.IntraWords += intraW[r]
			res.InterWords += interW[r]
		}
	} else {
		// The combined schedules' wire charges (setups, volume at link
		// rate, drains, the hierarchical relay's internal barriers) land
		// here, inside the same send superstep the flat charge occupies.
		ch := mdl.ChargeFlows(clk, d.Exchange, flowsFromStart(flowStart, p, mdl))
		res.Setups = ch.Msgs
		res.SetupTime = ch.SetupTime
		res.IntraWords = ch.IntraWords
		res.InterWords = ch.InterWords
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
// canonical. The send span covers a rank's pack + wire charges of the
// send superstep; the rebuild span starts at the superstep barrier
// (pack + comm elapsed) and covers the rank's unpack/rebuild charge.
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

// flowsFromStart converts the canonical flow table into the sparse
// src-major flow list machine.ChargeFlows consumes, at the modeled volume
// of accountRemap (ElemWords per element plus the shared-structure
// perturbation).
func flowsFromStart(flowStart []int64, p int, mdl machine.Model) []machine.Flow {
	var flows []machine.Flow
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			elems := flowStart[src*p+dst+1] - flowStart[src*p+dst]
			if elems == 0 || src == dst {
				continue
			}
			words := elems * int64(mdl.ElemWords)
			words += words / 32
			flows = append(flows, machine.Flow{Src: int32(src), Dst: int32(dst), Words: words})
		}
	}
	return flows
}
