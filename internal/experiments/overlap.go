package experiments

import (
	"fmt"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/par"
	"plum/internal/partition"
)

// OverlapRow is one P's overlapped cycle anatomy.
type OverlapRow struct {
	P int
	// Solver is the modeled time of the cycle's solver iterations — the
	// window the balance pipeline may hide behind.
	Solver float64
	// Pipeline is the repartition + reassignment; Redist the predicted
	// remap (the slowest rank's pack + wire + rebuild, par.ChargeRemap),
	// which stays exposed.
	Pipeline, Redist float64
	// CritBulk and CritOverlap are the cycle's modeled critical path with
	// the strict barrier chain (solver + full cost) and with overlap
	// (solver + exposed cost); Hidden is the portion of Pipeline hidden
	// behind the solve, Speedup the ratio CritBulk/CritOverlap.
	CritBulk, CritOverlap, Hidden, Speedup float64
	// PeakWords is the executor's largest window, in record words;
	// TotalWords the whole payload of the same migration (Moved ×
	// par.RecordWords), what a single window would hold.
	PeakWords, TotalWords int64
	// Accepted reports whether the cycle's remap was executed.
	Accepted bool
}

// OverlapTable is the overlapped-cycle anatomy: how much of the balance
// pipeline the solver iterations hide and how far the windowed remap
// keeps its largest window below the whole payload, on the
// Local_2-adapted paper mesh with the incremental Hilbert repartitioner.
type OverlapTable struct {
	Rows []OverlapRow
}

// RunOverlapTable runs one overlapped cycle (Hilbert repartitioner,
// Local_2 refinement, Config.Overlap on) per processor count and reports
// the overlap anatomy.
func RunOverlapTable() *OverlapTable {
	out := &OverlapTable{}
	for _, p := range ProcCounts {
		if p < 8 {
			continue // too little imbalance to repartition
		}
		cfg := core.DefaultConfig(p)
		cfg.Method = partition.MethodHilbertSFC
		cfg.Overlap = true
		_, reps := runCycles(BaseMesh(), cfg, 1, func(_ int, a *adapt.Adaptor) {
			a.MarkStrategyRefine(adapt.Local2, Seed)
		})
		rep := reps[0]
		b := rep.Balance
		row := OverlapRow{
			P:        p,
			Solver:   rep.SolverTime,
			Pipeline: b.PipelineTime(),
			Redist:   b.Predicted.Total,
			CritBulk: rep.SolverTime + b.CostFull,
			Hidden:   b.OverlapTime,
			Accepted: b.Accepted,
		}
		row.CritOverlap = rep.SolverTime + b.Cost
		if row.CritOverlap > 0 {
			row.Speedup = row.CritBulk / row.CritOverlap
		}
		row.PeakWords = b.Remap.PeakWords
		row.TotalWords = b.Remap.Moved * par.RecordWords
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the anatomy table.
func (t *OverlapTable) String() string {
	tb := newTable("Overlapped cycle anatomy on the Local_2-adapted mesh (Hilbert repartitioner, SP2 model)")
	tb.row("P", "solver (s)", "pipe (s)", "redist (s)",
		"crit bulk", "crit ovlp", "hidden (s)", "speedup", "peak wds", "total wds")
	for _, r := range t.Rows {
		tb.row(r.P,
			fmt.Sprintf("%.4g", r.Solver), fmt.Sprintf("%.4g", r.Pipeline), fmt.Sprintf("%.4g", r.Redist),
			fmt.Sprintf("%.4g", r.CritBulk), fmt.Sprintf("%.4g", r.CritOverlap), fmt.Sprintf("%.4g", r.Hidden),
			fmt.Sprintf("%.3f", r.Speedup), r.PeakWords, r.TotalWords)
	}
	return tb.String()
}
