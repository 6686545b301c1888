package remap

// CostModel holds the machine and solver constants of the paper's
// gain/cost decision rule (Sec. "Cost Calculation"):
//
//	gain  = Titer · Nadapt · (Wmax_old − Wmax_new)
//	cost  = C·M·Tlat + N·Tsetup
//
// where C is the number of elements moved, N the number of element sets
// moved, M the words of storage per element, Tlat the remote-memory
// per-word copy time, and Tsetup the per-message setup time. The new
// partitioning and mapping are accepted when gain > cost; core.balance
// applies the rule with the measured balancing overhead (repartition,
// reassignment and remap-execution time) added to the cost side, which
// the paper neglects because its spectral repartitioner runs rarely.
type CostModel struct {
	// Titer is the flow-solver time per iteration per element (seconds).
	Titer float64
	// Nadapt is the expected number of solver iterations until the next
	// mesh adaption.
	Nadapt int
	// Tlat is the remote-memory latency: seconds to copy one word
	// memory-to-memory between processors.
	Tlat float64
	// Tsetup is the per-message setup time (headers, buffer loading).
	Tsetup float64
	// M is the words of storage per element required by the flow solver
	// and mesh adaptor together.
	M int
}

// DefaultSP2 returns cost-model constants of the paper's era (IBM SP2,
// 1996-class interconnect): ≈40 µs message setup, ≈0.25 µs per 8-byte
// word at ≈35 MB/s sustained, a 20 µs-per-element solver iteration, 100
// solver iterations between adaptions, and 50 words of state per element.
func DefaultSP2() CostModel {
	return CostModel{
		Titer:  20e-6,
		Nadapt: 100,
		Tlat:   0.25e-6,
		Tsetup: 40e-6,
		M:      50,
	}
}

// Gain returns the expected computational gain (seconds) of running the
// next Nadapt solver iterations on the new partitions instead of the old:
// Titer·Nadapt·(Wmax_old − Wmax_new).
func (c CostModel) Gain(wmaxOld, wmaxNew int64) float64 {
	return c.Titer * float64(c.Nadapt) * float64(wmaxOld-wmaxNew)
}

// RedistCost returns the expected redistribution overhead (seconds) of
// moving C elements in N sets: C·M·Tlat + N·Tsetup. The paper notes C·M
// dominates N for realistic problems.
func (c CostModel) RedistCost(moved int64, sets int) float64 {
	return float64(moved)*float64(c.M)*c.Tlat + float64(sets)*c.Tsetup
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
