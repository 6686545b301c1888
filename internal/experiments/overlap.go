package experiments

import (
	"fmt"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/par"
	"plum/internal/partition"
)

// OverlapRow is one (P, workers) cycle's overlap anatomy.
type OverlapRow struct {
	P, Workers int
	// Solver is the modeled time of the cycle's solver iterations — the
	// window the balance pipeline may hide behind.
	Solver float64
	// Pipeline is the CPU-side balance critical path (repartition +
	// reassignment + remap execution); Redist the wire redistribution
	// (C·M·Tlat + N·Tsetup), which stays exposed.
	Pipeline, Redist float64
	// CritBulk and CritOverlap are the cycle's modeled critical path with
	// the strict barrier chain (solver + full cost) and with overlap
	// (solver + exposed cost); Hidden is the portion of Pipeline hidden
	// behind the solve, Speedup the ratio CritBulk/CritOverlap.
	CritBulk, CritOverlap, Hidden, Speedup float64
	// PeakWords is the streaming executor's payload high-water mark;
	// TotalWords the bulk executor's whole-buffer footprint for the same
	// migration (Moved × par.RecordWords).
	PeakWords, TotalWords int64
	// Accepted reports whether the cycle's remap was executed.
	Accepted bool
}

// OverlapTable is the overlapped-cycle anatomy: how much of the balance
// pipeline the solver iterations hide and how far the streaming remap
// executor cuts the payload footprint, on the Local_2-adapted paper mesh
// with the incremental Hilbert repartitioner. The modeled figures are
// identical at every worker count (the determinism contract), so the
// workers axis demonstrates invariance rather than scaling.
type OverlapTable struct {
	Rows []OverlapRow
}

// RunOverlapTable runs one overlapped cycle (Hilbert repartitioner,
// Local_2 refinement, Config.Overlap on) per processor count and worker
// knob and reports the overlap anatomy. workers > 0 pins a single worker
// count; ≤ 0 sweeps workers 1 and 4.
func RunOverlapTable(workers int) *OverlapTable {
	axis := []int{1, 4}
	if workers > 0 {
		axis = []int{workers}
	}
	out := &OverlapTable{}
	for _, p := range ProcCounts {
		if p < 8 {
			continue // too little imbalance to repartition
		}
		for _, w := range axis {
			cfg := core.DefaultConfig(p)
			cfg.Method = partition.MethodHilbertSFC
			cfg.Workers = w
			cfg.Overlap = true
			_, reps := runCycles(BaseMesh(), cfg, 1, func(_ int, a *adapt.Adaptor) {
				a.MarkStrategyRefine(adapt.Local2, Seed)
			})
			rep := reps[0]
			b := rep.Balance
			row := OverlapRow{
				P: p, Workers: w,
				Solver:   rep.SolverTime,
				Pipeline: b.RepartitionTime + b.ReassignTime + b.RemapExecTime,
				Accepted: b.Accepted,
			}
			row.Redist = b.CostFull - row.Pipeline
			row.CritBulk = rep.SolverTime + b.CostFull
			row.CritOverlap = rep.SolverTime + b.Cost
			row.Hidden = b.OverlapTime
			if row.CritOverlap > 0 {
				row.Speedup = row.CritBulk / row.CritOverlap
			}
			row.PeakWords = b.Remap.PeakWords
			row.TotalWords = b.Remap.Moved * par.RecordWords
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// String renders the anatomy table.
func (t *OverlapTable) String() string {
	tb := newTable("Overlapped cycle anatomy on the Local_2-adapted mesh (Hilbert repartitioner, SP2 model)")
	tb.row("P", "wk", "solver (s)", "pipe (s)", "redist (s)",
		"crit bulk", "crit ovlp", "hidden (s)", "speedup", "peak wds", "total wds")
	for _, r := range t.Rows {
		tb.row(r.P, r.Workers,
			fmt.Sprintf("%.4g", r.Solver), fmt.Sprintf("%.4g", r.Pipeline), fmt.Sprintf("%.4g", r.Redist),
			fmt.Sprintf("%.4g", r.CritBulk), fmt.Sprintf("%.4g", r.CritOverlap), fmt.Sprintf("%.4g", r.Hidden),
			fmt.Sprintf("%.3f", r.Speedup), r.PeakWords, r.TotalWords)
	}
	return tb.String()
}
