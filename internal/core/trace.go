package core

import (
	"plum/internal/machine"
	"plum/internal/obs"
	"plum/internal/par"
)

// The balance pipeline's multi-span emitters and its metrics. The
// cycle calls the tracer directly wherever one span or event is one
// call: obs builds an attribute without formatting it and copies the
// attributes it keeps, so an emission on a nil trace allocates nothing
// (TestTraceDisabledIsFree pins this with testing.AllocsPerRun).
//
// Exports are byte-identical run to run (TestTraceGolden).

// traceAdaptClose records a refinement's closed half (par.Dist.CloseRefine),
// the marking and the closure on the pre-balance owners: phase children
// laid end to end under an enclosing span of their sum, then advances the
// cursor.
func traceAdaptClose(tr *obs.Trace, tm par.AdaptTimings) {
	t0, dur := tr.Now(), tm.Target+tm.Propagate
	tr.Span(obs.FrameworkRank, "adapt.close", t0, dur,
		obs.Int("visits", tm.Visits), obs.Int("marked", tm.Marked))
	tr.Span(obs.FrameworkRank, "adapt.target", t0, tm.Target)
	tr.Span(obs.FrameworkRank, "adapt.propagate", t0+tm.Target, tm.Propagate,
		obs.Int("rounds", int64(tm.CommRounds)), obs.Int("msgs", tm.Msgs), obs.Int("words", tm.Words))
	tr.Advance(dur)
}

// traceAdaptFinish records the subdivision half (par.Dist.FinishRefine) on
// the balanced owners, with the whole pass's ops and retries: phase
// children under an enclosing span of their sum, then advances the cursor.
func traceAdaptFinish(tr *obs.Trace, tm par.AdaptTimings) {
	t0, dur := tr.Now(), tm.Execute+tm.Classify
	tr.Span(obs.FrameworkRank, "adapt.finish", t0, dur,
		obs.Int("ops", tm.Ops.Total), obs.Int("retries", tm.Retries), obs.Int("backoff", tm.Backoff))
	tr.Span(obs.FrameworkRank, "adapt.execute", t0, tm.Execute)
	tr.Span(obs.FrameworkRank, "adapt.classify", t0+tm.Execute, tm.Classify)
	tr.Advance(dur)
}

// traceRepartition records the repartitioning stage, its work priced at
// the modeled seconds dur the partitioner returned, and advances the
// cursor.
func traceRepartition(tr *obs.Trace, work machine.Ops, dur float64, parts int) {
	tr.Span(obs.FrameworkRank, "repartition", tr.Now(), dur,
		obs.Int("parts", int64(parts)), obs.Int("ops", work.Total), obs.Int("mem_ops", work.Mem))
	tr.Advance(dur)
}

// remapStages names an executed remap's enclosing span and its three
// phase children. The names are constants, not built by concatenation,
// so naming a span allocates nothing.
type remapStages struct{ whole, pack, comm, rebuild string }

var (
	execStages     = remapStages{"remap.exec", "remap.exec.pack", "remap.exec.comm", "remap.exec.rebuild"}
	recoveryStages = remapStages{"remap.recovery", "remap.recovery.pack", "remap.recovery.comm", "remap.recovery.rebuild"}
)

// traceRemapExec records an executed remap's enclosing span with its phase
// children (all from the canonical flow layout) and advances the cursor
// past the remap. The per-rank send/rebuild spans were already emitted
// against the same base cursor by par's accounting.
func traceRemapExec(tr *obs.Trace, st remapStages, res *par.RemapResult) {
	t0 := tr.Now()
	tr.Span(obs.FrameworkRank, st.whole, t0, res.Total,
		obs.Int("moved", res.Moved), obs.Int("sets", int64(res.Sets)),
		obs.Int("words", res.WordsMoved), obs.Int("setups", res.Setups),
		obs.Int("retries", res.Retries), obs.Int("window_retries", int64(res.WindowRetries)))
	tr.Span(obs.FrameworkRank, st.pack, t0, res.PackTime)
	tr.Span(obs.FrameworkRank, st.comm, t0+res.PackTime, res.CommTime,
		obs.Float("setup_s", res.SetupTime))
	tr.Span(obs.FrameworkRank, st.rebuild, t0+res.PackTime+res.CommTime, res.RebuildTime)
	tr.Advance(res.Total)
}

// recordCycleMetrics accumulates one completed cycle's counters and
// gauges.
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
	reg.SetHelp("plum_msg_retries_total", "Remap messages resent recovering injected faults.")
	reg.SetHelp("plum_retry_words_total", "Payload words of resent remap messages.")
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
}
