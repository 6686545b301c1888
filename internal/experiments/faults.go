package experiments

import (
	"fmt"
	"strings"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
)

// faultRates and faultBudgets are the sweep axes: fault probability per
// message attempt × scalar recovery budget (fault.Budget — b extra send
// attempts per message, b window re-executions).
var (
	faultRates   = []float64{0, 0.05, 0.2, 0.5}
	faultBudgets = []int{0, 1, 3}
)

// faultCycles is the number of balance cycles each cell runs.
const faultCycles = 3

// FaultRow is one (rate, budget) cell of the fault sweep: the outcome of
// every cycle plus the accumulated recovery traffic.
type FaultRow struct {
	Rate   float64
	Budget int
	// Outcomes is each cycle's conclusion, in order.
	Outcomes []core.BalanceOutcome
	// MsgRetries and RetryWords are the remap exchange's summed retry
	// traffic; WindowRetries the re-executed remap windows.
	MsgRetries, RetryWords int64
	WindowRetries          int
	// AdaptRetries and AdaptBackoff are the modeled retry traffic of the
	// adaption notification exchanges (extra sends / backoff units).
	AdaptRetries, AdaptBackoff int64
	// RetryTime is the summed modeled remap retry time; FinalImbalance
	// the imbalance after the last cycle — the price of degradation.
	RetryTime      float64
	FinalImbalance float64
}

// FaultTable is the fault-tolerance anatomy: how the balance cycles
// conclude — committed, retried, rolled back, degraded — as the fault
// rate and the recovery budget vary, with the recovery traffic and its
// modeled cost. Deterministic for a given seed at every worker count.
type FaultTable struct {
	Seed    int64
	P       int
	Workers int
	Rows    []FaultRow
}

// RunFaultTable sweeps fault rate × recovery budget over a corner-refined
// box workload (P=8, three overlapped balance cycles per cell, streaming
// remap) under the given fault seed. Every figure in the table is
// byte-identical at every worker count and across repeated runs — the
// fault schedule is a pure function of (seed, cycle, stage, src, dst,
// attempt).
func RunFaultTable(seed int64, workers int) *FaultTable {
	const p = 8
	out := &FaultTable{Seed: seed, P: p, Workers: workers}
	for _, rate := range faultRates {
		for _, budget := range faultBudgets {
			cfg := core.DefaultConfig(p)
			cfg.Workers = workers
			cfg.Overlap = true // the overlapped cycle's exposed-cost acceptance rule
			cfg.Faults = &fault.Plan{Seed: seed, Rate: rate}
			cfg.Retry = fault.Budget(budget)
			_, reps := runCycles(meshgen.Box(8, 8, 8, geom.Vec3{X: 1, Y: 1, Z: 1}), cfg, faultCycles, shrinkingSphere)
			row := FaultRow{Rate: rate, Budget: budget}
			for _, rep := range reps {
				row.Outcomes = append(row.Outcomes, rep.Outcome)
				row.MsgRetries += rep.Balance.Remap.Retries
				row.RetryWords += rep.Balance.Remap.RetryWords
				row.WindowRetries += rep.Balance.Remap.WindowRetries
				row.AdaptRetries += rep.AdaptTime.Retries
				row.AdaptBackoff += rep.AdaptTime.Backoff
				row.RetryTime += rep.Balance.Remap.RetryTime
				row.FinalImbalance = rep.Balance.ImbalanceAfter
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// runCycles builds a framework on m under cfg and runs n balance cycles,
// marking cycle c with mark(c, ·), and returns the framework and the
// cycles' reports.
func runCycles(m *mesh.Mesh, cfg core.Config, n int, mark func(c int, a *adapt.Adaptor)) (*core.Framework, []core.CycleReport) {
	f, err := core.New(m, nil, cfg)
	if err != nil {
		panic(err)
	}
	reps := make([]core.CycleReport, n)
	for c := range reps {
		if reps[c], err = f.Cycle(func(a *adapt.Adaptor) { mark(c, a) }); err != nil {
			panic(err)
		}
	}
	return f, reps
}

// shrinkingSphere is the fault and recovery sweeps' marking: cycle c
// refines a sphere about the box corner of radius 0.7·0.8^c.
func shrinkingSphere(c int, a *adapt.Adaptor) {
	r := 0.7
	for range c {
		r *= 0.8
	}
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: r}, adapt.MarkRefine)
}

// shortOutcomes renders a row's per-cycle outcomes, compressed, for the
// tables' outcomes column.
func shortOutcomes(outcomes []core.BalanceOutcome) string {
	names := make([]string, len(outcomes))
	for i, o := range outcomes {
		switch o {
		case core.OutcomeCommitted:
			names[i] = "ok"
		case core.OutcomeRetriedCommitted:
			names[i] = "retried"
		case core.OutcomeRecovered:
			names[i] = "RECOVERED"
		case core.OutcomeRolledBack:
			names[i] = "rollback"
		case core.OutcomeDegraded:
			names[i] = "DEGRADED"
		default:
			names[i] = o.String()
		}
	}
	return strings.Join(names, ",")
}

// String renders the sweep.
func (t *FaultTable) String() string {
	tb := newTable(fmt.Sprintf("Fault-tolerant balance cycles: outcome sweep (seed %d, P=%d, %d cycles/cell, streaming remap)",
		t.Seed, t.P, faultCycles))
	tb.row("rate", "budget", "outcomes", "msg rty", "rty wds", "win rty",
		"ad rty", "ad bkf", "rty t (s)", "imb")
	for _, r := range t.Rows {
		tb.row(fmt.Sprintf("%.2f", r.Rate), r.Budget, shortOutcomes(r.Outcomes),
			r.MsgRetries, r.RetryWords, r.WindowRetries, r.AdaptRetries, r.AdaptBackoff,
			fmt.Sprintf("%.3g", r.RetryTime), fmt.Sprintf("%.2f", r.FinalImbalance))
	}
	return tb.String()
}
