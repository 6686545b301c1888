package experiments

import (
	"fmt"
	"time"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/par"
	"plum/internal/partition"
)

// AdaptExecRow is one processor count's adaption-phase anatomy.
type AdaptExecRow struct {
	P int
	// Rounds, Visits, and Marked summarize the propagation engine's
	// fixpoint; Msgs and Words its traffic under the chosen backend plus
	// the classification round.
	Rounds         int
	Visits, Marked int64
	Msgs, Words    int64
	// Ops is the pass's abstract work accounting (par.PredictAdaptOps of
	// the executed quantities).
	Ops machine.Ops
	// Target/Propagate/Execute/Classify/Total decompose the modeled SP2
	// adaption time.
	Target, Propagate, Execute, Classify, Total float64
	// HostSeconds is the real wall time of the ParallelRefine call on
	// this host at the table's worker knob (single shot: the pass
	// mutates the mesh, so it cannot be repeated on the same fixture).
	HostSeconds float64
}

// AdaptExecTable is the adaption anatomy the paper's Fig. 8 folds into a
// single speedup number: the per-P cost of the marking, propagation,
// subdivision, and classification phases, measured over the chunked
// propagation engine at a configurable worker knob and backend.
type AdaptExecTable struct {
	Workers    int
	Propagator string
	Rows       []AdaptExecRow
}

// RunAdaptTable refines the paper mesh with the Local_2 strategy under
// the given propagation exchange schedule (see machine.ExchangeByName) for a
// range of processor counts, reporting the execution anatomy at the given
// worker knob (≤ 0 = GOMAXPROCS). Each row rebuilds the mesh: the pass
// mutates it.
func RunAdaptTable(workers int, prop machine.Exchange) *AdaptExecTable {
	mdl := machine.SP2()
	out := &AdaptExecTable{Workers: workers, Propagator: prop.String()}
	for _, p := range ProcCounts {
		m := BaseMesh()
		g := dual.Build(m)
		d := par.NewDist(m, p, partition.Partition(g, p, partition.MethodInertial))
		d.Workers = workers
		d.Prop = prop
		a := adapt.New(m)
		a.MarkStrategyRefine(adapt.Local2, Seed)

		t0 := time.Now()
		_, tm := d.ParallelRefine(a, mdl)
		host := time.Since(t0).Seconds()

		out.Rows = append(out.Rows, AdaptExecRow{
			P:      p,
			Rounds: tm.CommRounds, Visits: tm.Visits, Marked: tm.Marked,
			Msgs: tm.Msgs, Words: tm.Words,
			Ops:    tm.Ops,
			Target: tm.Target, Propagate: tm.Propagate,
			Execute: tm.Execute, Classify: tm.Classify, Total: tm.Total,
			HostSeconds: host,
		})
	}
	return out
}

// String renders the anatomy table.
func (t *AdaptExecTable) String() string {
	tb := newTable(fmt.Sprintf("Adaption anatomy, Local_2 refinement (SP2 model, propagator=%s, workers=%d)",
		t.Propagator, t.Workers))
	tb.row("P", "rounds", "visits", "marked", "msgs", "words", "ops", "crit ops",
		"target (s)", "prop (s)", "exec (s)", "class (s)", "total (s)", "host (s)")
	for _, r := range t.Rows {
		tb.row(r.P, r.Rounds, r.Visits, r.Marked, r.Msgs, r.Words,
			r.Ops.Total, r.Ops.Crit,
			fmt.Sprintf("%.4g", r.Target), fmt.Sprintf("%.4g", r.Propagate),
			fmt.Sprintf("%.4g", r.Execute), fmt.Sprintf("%.4g", r.Classify),
			fmt.Sprintf("%.4g", r.Total), fmt.Sprintf("%.6f", r.HostSeconds))
	}
	return tb.String()
}
