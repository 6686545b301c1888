package experiments

import (
	"fmt"
	"strings"

	"plum/internal/core"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/meshgen"
)

// crashRates is the rank-death probability sweep: the chance each alive
// rank dies per balance cycle that reaches the remap stage.
var crashRates = []float64{0, 0.05, 0.1, 0.2}

// recoverCycles is the number of balance cycles each cell runs — enough
// for multi-crash schedules to fire on distinct cycles.
const recoverCycles = 4

// RecoverRow is one cell of the crash-recovery sweep: how the cycles
// concluded, which ranks died, and what the survivor remap cost.
type RecoverRow struct {
	Rate  float64
	Mixed bool // crash+drop rather than crash alone
	// Outcomes is each cycle's conclusion, in order.
	Outcomes []core.BalanceOutcome
	// Crashed accumulates every rank death over the run, in cycle order;
	// Alive is the number of surviving ranks at the end.
	Crashed []int
	Alive   int
	// RecMoved and RecWords total the survivor-recovery remaps' element
	// and payload traffic.
	RecMoved, RecWords int64
	// FinalImbalance is the load imbalance over the survivors after the
	// last cycle.
	FinalImbalance float64
}

// RecoverTable is the rank-crash recovery anatomy: how balance cycles
// conclude as ranks die mid-remap and what the survivor remap moves, as
// the crash rate varies — alone and mixed with message drops. Deterministic for a given seed.
type RecoverTable struct {
	Seed int64
	P    int
	Rows []RecoverRow
}

// RunRecoverTable sweeps the crash rate over a corner-refined box
// workload (P=8, four overlapped balance cycles per cell, streaming
// remap) under the given crash seed, each rate once with crashes alone
// and once mixed with message drops. Every figure is byte-identical
// across repeated runs — crash fates are a pure
// function of (seed, cycle, stage, rank).
func RunRecoverTable(seed int64) *RecoverTable {
	const p = 8
	out := &RecoverTable{Seed: seed, P: p}
	for _, rate := range crashRates {
		for _, mixed := range []bool{false, true} {
			kinds := []fault.Kind{fault.Crash}
			if mixed {
				kinds = []fault.Kind{fault.Crash, fault.Drop}
			}
			cfg := core.DefaultConfig(p)
			cfg.Overlap = true // the overlapped cycle's exposed-cost acceptance rule
			cfg.Faults = &fault.Plan{Seed: seed, Rate: rate, Kinds: kinds}
			cfg.Retry = fault.Budget(3)
			f, reps := runCycles(meshgen.Box(8, 8, 8, geom.Vec3{X: 1, Y: 1, Z: 1}), cfg, recoverCycles, shrinkingSphere)
			row := RecoverRow{Rate: rate, Mixed: mixed}
			for _, rep := range reps {
				row.Outcomes = append(row.Outcomes, rep.Outcome)
				row.Crashed = append(row.Crashed, rep.Balance.CrashedRanks...)
				row.RecMoved += rep.Balance.Recovery.Moved
				row.RecWords += rep.Balance.Recovery.WordsMoved
				row.FinalImbalance = rep.Balance.ImbalanceAfter
			}
			row.Alive = f.D.AliveCount()
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// String renders the sweep.
func (t *RecoverTable) String() string {
	tb := newTable(fmt.Sprintf("Rank-crash recovery: outcome sweep (seed %d, P=%d, %d cycles/cell, streaming remap)",
		t.Seed, t.P, recoverCycles))
	tb.row("rate", "kinds", "outcomes", "crashed", "alive", "rec mv", "rec wds", "imb")
	for _, r := range t.Rows {
		kinds := "crash"
		if r.Mixed {
			kinds = "c+drop"
		}
		crashed := "-"
		if len(r.Crashed) > 0 {
			crashed = strings.Trim(strings.Join(strings.Fields(fmt.Sprint(r.Crashed)), ","), "[]")
		}
		tb.row(fmt.Sprintf("%.2f", r.Rate), kinds, shortOutcomes(r.Outcomes), crashed, r.Alive,
			r.RecMoved, r.RecWords, fmt.Sprintf("%.2f", r.FinalImbalance))
	}
	return tb.String()
}
