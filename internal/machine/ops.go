package machine

// Ops is the abstract work accounting every counted stage reports —
// partitioning, boundary refinement, frontier propagation, the adaption
// passes and the remap execution: Total is the op count summed over all
// workers (what a serial machine would pay), Crit the critical-path share
// a parallel machine actually waits for, and MemTotal/MemCrit the
// memory-bound slice of each (adjacency chasing, gain scatter, record
// copies), charged at Model.MemOp; the compute-bound remainder (key
// encoding, sorts, eigen-solves, pattern scans) is charged at
// Model.CompOp. A serial execution path reports Crit == Total. Total and
// MemTotal are identical at every worker count.
type Ops struct {
	Total, Crit       int64
	MemTotal, MemCrit int64
}

// Add accumulates o2 into o.
func (o *Ops) Add(o2 Ops) {
	o.Total += o2.Total
	o.Crit += o2.Crit
	o.MemTotal += o2.MemTotal
	o.MemCrit += o2.MemCrit
}

// AddSerial accumulates purely serial compute-bound work: it extends the
// critical path one-for-one.
func (o *Ops) AddSerial(n int64) {
	o.Total += n
	o.Crit += n
}

// AddSerialMem accumulates purely serial memory-bound work.
func (o *Ops) AddSerialMem(n int64) {
	o.AddSerial(n)
	o.MemTotal += n
	o.MemCrit += n
}

// AddParallel accumulates compute-bound work divided across ew workers:
// the critical path is charged the slowest worker's (ceiling) share.
func (o *Ops) AddParallel(total int64, ew int) {
	o.Total += total
	o.Crit += CeilDiv(total, int64(ew))
}

// AddParallelMem accumulates memory-bound work divided across ew workers.
func (o *Ops) AddParallelMem(total int64, ew int) {
	o.AddParallel(total, ew)
	o.MemTotal += total
	o.MemCrit += CeilDiv(total, int64(ew))
}

// Clamp caps the critical path at the total: no schedule is slower than
// running everything serially, and the per-phase ceiling terms can
// otherwise nudge past it at tiny sizes.
func (o *Ops) Clamp() {
	o.Crit = min(o.Crit, o.Total)
	o.MemCrit = min(o.MemCrit, o.MemTotal)
}

// Time converts the accounting to modeled seconds on the machine's two
// rates: the mem-bound critical path at MemOp, the compute-bound
// remainder at CompOp.
func (o Ops) Time(m Model) float64 {
	return float64(o.Crit-o.MemCrit)*m.CompOp + float64(o.MemCrit)*m.MemOp
}

// CeilDiv returns ⌈a/b⌉ for positive b.
func CeilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}
