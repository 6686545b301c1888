package core

import (
	"plum/internal/machine"
	"plum/internal/obs"
	"plum/internal/par"
)

// The balance pipeline's trace and metrics emission. Every helper takes
// the trace/registry first and checks it for nil before touching its
// arguments, so a disabled observer costs one pointer compare per call
// site and — because the obs.Attr slices are built after the check —
// zero allocations on the cycle hot path (TestTraceDisabledIsFree pins
// this with testing.AllocsPerRun).
//
// Recorded quantities are exclusively worker-invariant: op totals,
// modeled phase times from the canonical flow layout, moved counts,
// imbalances, outcomes. Critical-path figures (Ops.Crit and the
// Crit-priced BalanceReport times such as RepartitionTime) legitimately
// depend on the worker knob and NEVER appear in a span or metric —
// span durations price op totals serially via serialOpTime instead —
// which is what keeps exports byte-identical at any worker count
// (TestTraceWorkerParity).

// serialOpTime prices an op accounting at the machine rates as if run
// serially: the compute share at CompOp, the memory-bound share at
// MemOp. Unlike the Crit-based wall-clock estimates, this figure is a
// pure function of the work done, not of how many workers did it.
func serialOpTime(mdl machine.Model, total, memTotal int64) float64 {
	return float64(total-memTotal)*mdl.CompOp + float64(memTotal)*mdl.MemOp
}

// traceCycleBegin opens the cycle's framework span at the cursor.
func traceCycleBegin(tr *obs.Trace, cycle int) {
	if tr == nil {
		return
	}
	tr.Begin("cycle", obs.Int("cycle", int64(cycle)))
}

// traceCycleEnd closes the cycle span with its outcome.
func traceCycleEnd(tr *obs.Trace, outcome BalanceOutcome) {
	if tr == nil {
		return
	}
	tr.End(obs.String("outcome", outcome.String()))
}

// traceSolver records the modeled solver iterations and advances the
// cursor past them.
func traceSolver(tr *obs.Trace, dur float64, iters int) {
	if tr == nil {
		return
	}
	tr.Span(obs.FrameworkRank, "solver", tr.Now(), dur, obs.Int("iters", int64(iters)))
	tr.Advance(dur)
}

// traceAdapt records the adaption pass: phase children laid end to end
// under an enclosing span of the pass's modeled total, then advances
// the cursor. All AdaptTimings phase times are worker-invariant (the
// adapt parity tests mask only Ops.Crit/MemCrit).
func traceAdapt(tr *obs.Trace, tm par.AdaptTimings) {
	if tr == nil {
		return
	}
	t0 := tr.Now()
	tr.Span(obs.FrameworkRank, "adapt", t0, tm.Total,
		obs.Int("visits", tm.Visits), obs.Int("marked", tm.Marked),
		obs.Int("ops", tm.Ops.Total), obs.Int("retries", tm.Retries), obs.Int("backoff", tm.Backoff))
	tr.Span(obs.FrameworkRank, "adapt.target", t0, tm.Target)
	tr.Span(obs.FrameworkRank, "adapt.propagate", t0+tm.Target, tm.Propagate,
		obs.Int("rounds", int64(tm.CommRounds)), obs.Int("msgs", tm.Msgs), obs.Int("words", tm.Words))
	tr.Span(obs.FrameworkRank, "adapt.execute", t0+tm.Target+tm.Propagate, tm.Execute)
	tr.Span(obs.FrameworkRank, "adapt.classify", t0+tm.Target+tm.Propagate+tm.Execute, tm.Classify)
	tr.Advance(tm.Total)
}

// traceCycleError closes the cycle span after a hard pipeline error
// (timeout, structural failure) so the span stack stays balanced.
func traceCycleError(tr *obs.Trace, err error) {
	if tr == nil {
		return
	}
	tr.Event("error", "cycle.error", obs.String("err", err.Error()))
	tr.End(obs.String("outcome", "error"))
}

// traceCkptCapture records a cycle-checkpoint capture.
func traceCkptCapture(tr *obs.Trace, cycle int) {
	if tr == nil {
		return
	}
	tr.Event("info", "ckpt.capture", obs.Int("cycle", int64(cycle)))
}

// traceCkptRestore records a cycle-checkpoint restore during crash
// recovery.
func traceCkptRestore(tr *obs.Trace, cycle int) {
	if tr == nil {
		return
	}
	tr.Event("info", "ckpt.restore", obs.Int("cycle", int64(cycle)))
}

// traceEvaluate records the preliminary-evaluation verdict.
func traceEvaluate(tr *obs.Trace, imbalance float64, repartition bool) {
	if tr == nil {
		return
	}
	tr.Event("info", "balance.evaluate",
		obs.Float("imbalance", imbalance), obs.Bool("repartition", repartition))
}

// traceRepartition records the repartitioning stage, priced serially
// from its op totals, and advances the cursor.
func traceRepartition(tr *obs.Trace, mdl machine.Model, ops machine.Ops, parts int) {
	if tr == nil {
		return
	}
	dur := serialOpTime(mdl, ops.Total, ops.MemTotal)
	tr.Span(obs.FrameworkRank, "repartition", tr.Now(), dur,
		obs.Int("parts", int64(parts)), obs.Int("ops", ops.Total), obs.Int("mem_ops", ops.MemTotal))
	tr.Advance(dur)
}

// traceReassign records the processor-reassignment stage (the mapper's
// similarity scans run serially, so ReassignTime is already invariant)
// and advances the cursor.
func traceReassign(tr *obs.Trace, ops int64, dur float64, objective int64) {
	if tr == nil {
		return
	}
	tr.Span(obs.FrameworkRank, "reassign", tr.Now(), dur,
		obs.Int("ops", ops), obs.Int("objective", objective))
	tr.Advance(dur)
}

// traceDecision records the gain/cost verdict. The modeled cost side is
// Crit-priced and worker-dependent, so only the worker-invariant inputs
// (gain, movement quantities) and the verdict itself are recorded.
func traceDecision(tr *obs.Trace, gain float64, moved int64, sets int, accepted bool) {
	if tr == nil {
		return
	}
	tr.Event("info", "remap.decide",
		obs.Float("gain", gain), obs.Int("moved", moved), obs.Int("sets", int64(sets)),
		obs.Bool("accepted", accepted))
}

// traceRemapExec records the executed remap's enclosing span with its
// phase children (all from the canonical flow layout, byte-identical at
// every worker count) and advances the cursor past the remap. The
// per-rank send/rebuild spans were already emitted against the same
// base cursor by par's accounting.
func traceRemapExec(tr *obs.Trace, stage string, res *par.RemapResult) {
	if tr == nil {
		return
	}
	t0 := tr.Now()
	tr.Span(obs.FrameworkRank, stage, t0, res.Total,
		obs.Int("moved", res.Moved), obs.Int("sets", int64(res.Sets)),
		obs.Int("words", res.WordsMoved), obs.Int("setups", res.Setups),
		obs.Int("retries", res.Retries), obs.Int("window_retries", int64(res.WindowRetries)))
	tr.Span(obs.FrameworkRank, stage+".pack", t0, res.PackTime)
	tr.Span(obs.FrameworkRank, stage+".comm", t0+res.PackTime, res.CommTime,
		obs.Float("setup_s", res.SetupTime))
	tr.Span(obs.FrameworkRank, stage+".rebuild", t0+res.PackTime+res.CommTime, res.RebuildTime)
	tr.Advance(res.Total)
}

// traceRollback records a rolled-back (or degraded) balance pass.
func traceRollback(tr *obs.Trace, outcome BalanceOutcome, detail string) {
	if tr == nil {
		return
	}
	level := "warn"
	if outcome == OutcomeDegraded {
		level = "error"
	}
	tr.Event(level, "balance.rollback",
		obs.String("outcome", outcome.String()), obs.String("detail", detail))
}

// traceCrash records the rank deaths that aborted a remap.
func traceCrash(tr *obs.Trace, crashed []int) {
	if tr == nil {
		return
	}
	for _, r := range crashed {
		tr.Event("error", "rank.crash", obs.Int("rank", int64(r)))
	}
}

// recordCycleMetrics accumulates one completed cycle's counters and
// gauges. Every figure is worker-invariant, so metrics dumps are
// byte-identical at any worker count.
func recordCycleMetrics(reg *obs.Registry, f *Framework, rep *CycleReport) {
	if reg == nil {
		return
	}
	b := &rep.Balance
	reg.Inc("plum_cycles_total")
	reg.Inc(`plum_outcomes_total{outcome="` + rep.Outcome.String() + `"}`)
	reg.Add("plum_modeled_seconds_total{stage=\"solver\"}", rep.SolverTime)
	reg.Add("plum_modeled_seconds_total{stage=\"adapt\"}", rep.AdaptTime.Total)
	reg.Add("plum_ops_total{stage=\"adapt\"}", float64(rep.AdaptTime.Ops.Total))
	reg.Add("plum_adapt_retries_total", float64(rep.AdaptTime.Retries))
	reg.Add("plum_adapt_backoff_total", float64(rep.AdaptTime.Backoff))
	if b.Repartitioned {
		reg.Inc("plum_repartitions_total")
		reg.Add("plum_ops_total{stage=\"repartition\"}", float64(b.RepartitionOps))
		reg.Add("plum_ops_total{stage=\"reassign\"}", float64(b.ReassignOps))
		reg.Add("plum_ops_total{stage=\"remap\"}", float64(b.RemapOps))
		if b.Accepted {
			reg.Inc("plum_remaps_accepted_total")
			reg.Add("plum_elements_moved_total", float64(b.Remap.Moved))
			reg.Add("plum_element_sets_total", float64(b.Remap.Sets))
			reg.Add("plum_words_moved_total", float64(b.Remap.WordsMoved))
			reg.Add("plum_remap_setups_total", float64(b.Remap.Setups))
			reg.Add("plum_modeled_seconds_total{stage=\"remap\"}", b.Remap.Total)
		} else {
			reg.Inc("plum_remaps_rejected_total")
		}
	}
	reg.Add("plum_msg_retries_total", float64(b.Remap.Retries))
	reg.Add("plum_retry_words_total", float64(b.Remap.RetryWords))
	reg.Add("plum_window_retries_total", float64(b.Remap.WindowRetries))
	switch rep.Outcome {
	case OutcomeRolledBack, OutcomeDegraded:
		reg.Inc("plum_rollbacks_total")
	case OutcomeRecovered:
		reg.Inc("plum_recoveries_total")
		reg.Add("plum_crashed_ranks_total", float64(len(b.CrashedRanks)))
		reg.Add("plum_elements_moved_total", float64(b.Recovery.Moved))
		reg.Add("plum_words_moved_total", float64(b.Recovery.WordsMoved))
	}
	reg.Set("plum_imbalance_before", b.ImbalanceBefore)
	reg.Set("plum_imbalance_after", b.ImbalanceAfter)
	reg.Set("plum_alive_ranks", float64(b.Alive))
	reg.Set("plum_mesh_elements", float64(f.M.NumActiveElems()))
	st := f.CheckpointStats()
	reg.Set("plum_checkpoint_captures", float64(st.Captures))
	reg.Set("plum_checkpoint_restores", float64(st.Restores))
	reg.Set("plum_checkpoint_full_words", float64(st.FullWords))
	reg.Set("plum_checkpoint_delta_words", float64(st.DeltaWords))
}

// RegisterHelp attaches the framework's metric HELP strings to reg, for
// drivers that export Prometheus dumps.
func RegisterHelp(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.SetHelp("plum_cycles_total", "Completed solution/adaption cycles.")
	reg.SetHelp("plum_outcomes_total", "Balance-pass conclusions by outcome.")
	reg.SetHelp("plum_modeled_seconds_total", "Modeled machine time by pipeline stage.")
	reg.SetHelp("plum_ops_total", "Abstract op totals by pipeline stage.")
	reg.SetHelp("plum_repartitions_total", "Balance passes that exceeded the imbalance threshold.")
	reg.SetHelp("plum_remaps_accepted_total", "Remaps executed after the gain/cost decision.")
	reg.SetHelp("plum_remaps_rejected_total", "Repartitions discarded by the gain/cost decision.")
	reg.SetHelp("plum_elements_moved_total", "Elements migrated by executed remaps (incl. recoveries).")
	reg.SetHelp("plum_element_sets_total", "Element sets migrated by executed remaps.")
	reg.SetHelp("plum_words_moved_total", "Modeled words moved by executed remaps (incl. recoveries).")
	reg.SetHelp("plum_remap_setups_total", "Message setups of executed remap exchanges.")
	reg.SetHelp("plum_msg_retries_total", "Remap transport frames resent recovering injected faults.")
	reg.SetHelp("plum_retry_words_total", "Payload words of resent remap frames.")
	reg.SetHelp("plum_window_retries_total", "Remap window re-executions.")
	reg.SetHelp("plum_adapt_retries_total", "Modeled adaption-exchange retries.")
	reg.SetHelp("plum_adapt_backoff_total", "Modeled adaption-exchange backoff units.")
	reg.SetHelp("plum_rollbacks_total", "Balance passes rolled back after exhausted retries.")
	reg.SetHelp("plum_recoveries_total", "Crash recoveries completed onto survivors.")
	reg.SetHelp("plum_crashed_ranks_total", "Ranks lost to injected crashes.")
	reg.SetHelp("plum_imbalance_before", "Wmax/Wavg before the last balance pass.")
	reg.SetHelp("plum_imbalance_after", "Wmax/Wavg after the last balance pass.")
	reg.SetHelp("plum_alive_ranks", "Surviving processor count.")
	reg.SetHelp("plum_mesh_elements", "Active mesh elements.")
	reg.SetHelp("plum_checkpoint_captures", "Cycle-checkpoint captures.")
	reg.SetHelp("plum_checkpoint_restores", "Cycle-checkpoint restores.")
	reg.SetHelp("plum_checkpoint_full_words", "Checkpoint words written by whole-slice clones.")
	reg.SetHelp("plum_checkpoint_delta_words", "Checkpoint words written by delta patches.")
}
