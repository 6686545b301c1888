// Package machine provides the analytic distributed-memory machine model
// used to place all experiments on an IBM SP2-like time axis. The paper's
// own cost calculation uses exactly two machine constants — the
// remote-memory per-word latency Tlat and the per-message setup time
// Tsetup — plus per-element computation rates; this package extends that
// model with per-operation costs for the mesh-adaption phases and a
// superstep clock with max-over-ranks semantics.
//
// Absolute numbers are calibrated to 1996-class hardware (66 MHz POWER2,
// ≈40 µs MPI latency, ≈35 MB/s sustained bandwidth); only the *shape* of
// the resulting curves is meaningful, which is all the reproduction
// claims.
package machine

// Model holds the per-operation costs (seconds) of the machine.
type Model struct {
	// MarkEdge is the cost of computing the error indicator and setting
	// the target bit for one local edge.
	MarkEdge float64
	// PropagateVisit is the cost of one element pattern-upgrade visit
	// during marking propagation.
	PropagateVisit float64
	// BisectEdge is the cost of splitting one edge (midpoint vertex,
	// child edges, solution interpolation).
	BisectEdge float64
	// SubdivideChild is the cost of creating one child element during
	// subdivision (data structure updates dominate).
	SubdivideChild float64
	// RemoveElem is the cost of purging one element during coarsening
	// (cheaper than creation: no allocation or interpolation).
	RemoveElem float64
	// PackWord/UnpackWord are the per-word costs of loading and draining
	// message buffers during remapping.
	PackWord, UnpackWord float64
	// RebuildElem is the per-element cost of rebuilding internal and
	// shared data structures after migration (the computation part of
	// the paper's remapping overhead).
	RebuildElem float64
	// Tlat is the remote-memory per-word copy time.
	Tlat float64
	// Tsetup is the per-message setup time.
	Tsetup float64
	// RetryBackoff is the modeled time of one backoff unit: the timeout a
	// sender waits before retransmitting a lost or corrupted message.
	// fault.Deliver charges Σ 2^try units per recovered
	// message (exponential backoff), so robustness has an honest modeled
	// cost instead of free retries.
	RetryBackoff float64
	// ElemWords is the words of storage per element moved during
	// remapping (the paper's M).
	ElemWords int
	// CompOp is the cost of one compute-bound inner-loop operation of
	// the load-balancing algorithms (Hilbert/Morton key encoding, sort
	// comparisons, BFS sweeps): arithmetic that streams through
	// cache. It replaces the lower half of the old blended AlgOp.
	CompOp float64
	// MemOp is the cost of one memory-bound inner-loop operation
	// (boundary-refinement gain scatter over adjacency lists,
	// similarity-matrix scans, Hungarian updates): pointer chasing
	// dominated by memory latency, roughly twice the compute rate on
	// 1996-class hardware. It replaces the upper half of the old AlgOp.
	MemOp float64
}

// SP2 returns the model calibrated to the paper's 64-node IBM SP2.
func SP2() Model {
	return Model{
		MarkEdge:       0.8e-6,
		PropagateVisit: 1.2e-6,
		BisectEdge:     10e-6,
		SubdivideChild: 16e-6,
		RemoveElem:     4e-6,
		PackWord:       0.05e-6,
		UnpackWord:     0.05e-6,
		RebuildElem:    6e-6,
		Tlat:           0.25e-6,
		Tsetup:         40e-6,
		RetryBackoff:   200e-6,
		ElemWords:      50,
		CompOp:         0.03e-6,
		MemOp:          0.06e-6,
	}
}

// MsgTime returns the cost of one message of the given number of words:
// Tsetup + words·Tlat.
func (m Model) MsgTime(words int64) float64 {
	return m.Tsetup + float64(words)*m.Tlat
}

// RetryTime returns the sender's modeled stall for recovering one
// message of the given words: every resend pays the message again
// (MsgTime) and every backoff unit RetryBackoff. It is the one retry
// price of the remap payload exchange and the notification exchanges.
func (m Model) RetryTime(resends, backoff, words int64) float64 {
	return float64(resends)*m.MsgTime(words) + float64(backoff)*m.RetryBackoff
}

// FlowWords returns the modeled volume of a remap flow of elems
// elements: ElemWords words per element plus the shared-structure
// perturbation, ≈ 3 % (partition-boundary data the paper notes causes
// slight perturbations).
func (m Model) FlowWords(elems int64) int64 {
	words := elems * int64(m.ElemWords)
	return words + words/32
}

// RedistCost returns the paper's predicted redistribution overhead
// (seconds) of moving C elements in N sets: C·M·Tlat + N·Tsetup, with M
// = ElemWords. The paper notes C·M dominates N for realistic problems.
// It prices the total volume, as if one rank sent every flow; the
// framework reports it beside the per-rank price its acceptance rule
// charges (core.BalanceReport.CostPaper).
func (m Model) RedistCost(moved int64, sets int) float64 {
	return float64(moved)*float64(m.ElemWords)*m.Tlat + float64(sets)*m.Tsetup
}

// Clock tracks per-rank elapsed time across an SPMD computation. Work is
// added per rank; Barrier advances every rank to the maximum (bulk-
// synchronous superstep semantics); Elapsed reports the slowest rank.
type Clock struct {
	t []float64
}

// NewClock returns a clock for p ranks at time zero.
func NewClock(p int) *Clock { return &Clock{t: make([]float64, p)} }

// P returns the number of ranks.
func (c *Clock) P() int { return len(c.t) }

// Add accrues seconds of local work on the given rank.
func (c *Clock) Add(rank int, seconds float64) { c.t[rank] += seconds }

// AddCounts accrues counts[r] units of work of unit seconds each on every
// rank r.
func (c *Clock) AddCounts(counts []int64, unit float64) {
	for r, n := range counts {
		c.t[r] += float64(n) * unit
	}
}

// Barrier synchronizes: every rank's clock advances to the maximum.
func (c *Clock) Barrier() {
	max := 0.0
	for _, x := range c.t {
		if x > max {
			max = x
		}
	}
	for i := range c.t {
		c.t[i] = max
	}
}

// Elapsed returns the current time of the slowest rank.
func (c *Clock) Elapsed() float64 {
	max := 0.0
	for _, x := range c.t {
		if x > max {
			max = x
		}
	}
	return max
}

// Rank returns the current time of one rank.
func (c *Clock) Rank(i int) float64 { return c.t[i] }

// Wait advances a rank to time t if it is behind it: a blocking receive
// whose message lands at t.
func (c *Clock) Wait(rank int, t float64) {
	if t > c.t[rank] {
		c.t[rank] = t
	}
}

// Reset returns the clock to time zero over p ranks, reusing its storage
// when it is large enough.
func (c *Clock) Reset(p int) {
	if cap(c.t) < p {
		c.t = make([]float64, p)
	}
	c.t = c.t[:p]
	clear(c.t)
}
