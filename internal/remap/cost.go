package remap

// CostModel holds the solver constants of the paper's gain/cost decision
// rule (Sec. "Cost Calculation"):
//
//	gain  = Titer · Nadapt · (Wmax_old − Wmax_new)
//	cost  = C·M·Tlat + N·Tsetup
//
// where C is the number of elements moved and N the number of element
// sets moved. The cost side's machine constants — M words per element,
// the per-word copy time Tlat and the per-message setup time Tsetup — are
// machine.Model's (machine.Model.RedistCost is the formula). The new
// partitioning and mapping are accepted when gain > cost. core.balance
// keeps the gain and replaces the cost's total-volume formula with the
// executor's own per-rank charge of the remap's flows (Flows of the old
// and new owner arrays and Wremap, priced by par.ChargeRemap and then
// executed as they are), plus the measured balancing overhead
// (repartition, reassignment and remap-execution time) that the paper
// neglects because its spectral repartitioner runs rarely.
type CostModel struct {
	// Titer is the flow-solver time per iteration per element (seconds).
	Titer float64
	// Nadapt is the expected number of solver iterations until the next
	// mesh adaption.
	Nadapt int
}

// DefaultSP2 returns the solver constants of the paper's era: a 20
// µs-per-element solver iteration and 100 solver iterations between
// adaptions.
func DefaultSP2() CostModel {
	return CostModel{
		Titer:  20e-6,
		Nadapt: 100,
	}
}

// Gain returns the expected computational gain (seconds) of running the
// next Nadapt solver iterations on the new partitions instead of the old:
// Titer·Nadapt·(Wmax_old − Wmax_new).
func (c CostModel) Gain(wmaxOld, wmaxNew int64) float64 {
	return c.Titer * float64(c.Nadapt) * float64(wmaxOld-wmaxNew)
}

// SolverTime returns the time (seconds) for Nadapt solver iterations with
// the given maximum per-processor load — the quantity Fig. 12 compares
// with and without load balancing.
func (c CostModel) SolverTime(wmax int64) float64 {
	return c.SolverTimeIters(wmax, c.Nadapt)
}

// SolverTimeIters returns the time (seconds) for iters solver iterations
// with the given maximum per-processor load: Titer·iters·wmax. Cycle uses
// it with Config.SolverIters so the modeled solver window matches the
// iterations the proxy solver actually runs; SolverTime is the Nadapt
// special case the gain side of the cost model is built on.
func (c CostModel) SolverTimeIters(wmax int64, iters int) float64 {
	return c.Titer * float64(iters) * float64(wmax)
}
