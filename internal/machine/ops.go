package machine

// Ops is the abstract work accounting every counted stage reports —
// partitioning, boundary refinement, frontier propagation and the
// adaption passes: Total is the op count of the whole
// stage, and Mem the memory-bound slice of it (adjacency chasing, gain
// scatter, record copies), charged at Model.MemOp; the compute-bound
// remainder (key encoding, sorts, eigen-solves, pattern scans) is charged
// at Model.CompOp. It counts work, not a schedule, so it is the same at
// every worker count.
type Ops struct {
	Total, Mem int64
}

// Add accumulates o2 into o.
func (o *Ops) Add(o2 Ops) {
	o.Total += o2.Total
	o.Mem += o2.Mem
}

// AddComp accumulates compute-bound work.
func (o *Ops) AddComp(n int64) {
	o.Total += n
}

// AddMem accumulates memory-bound work.
func (o *Ops) AddMem(n int64) {
	o.Total += n
	o.Mem += n
}

// Time converts the accounting to modeled seconds on the machine's two
// rates: the memory-bound slice at MemOp, the compute-bound remainder at
// CompOp.
func (o Ops) Time(m Model) float64 {
	return float64(o.Total-o.Mem)*m.CompOp + float64(o.Mem)*m.MemOp
}

// CeilDiv returns ⌈a/b⌉ for positive b.
func CeilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}
