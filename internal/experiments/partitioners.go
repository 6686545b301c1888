package experiments

import (
	"fmt"
	"math"
	"time"

	"plum/internal/machine"
	"plum/internal/partition"
)

// PartitionerRow is one backend's quality/cost measurement on the
// adapted paper-scale dual graph.
type PartitionerRow struct {
	Method partition.Method
	// PartitionSeconds is the wall time of one from-scratch partition.
	PartitionSeconds float64
	// IncrementalSeconds is the wall time of a later Repartition, without
	// owners, on the same partition.Repartitioner: the SFC backends reuse
	// their cached curve order, the graph partitioners cache nothing and
	// partition from scratch again.
	IncrementalSeconds float64
	// Ops is the backend's work, curve build included — the count the
	// remap acceptance rule prices. Nonzero for every backend.
	Ops machine.Ops
	// Imbalance is the paper's load-imbalance factor Wmax/Wavg.
	Imbalance float64
	// EdgeCut is the number of dual edges crossing partition boundaries.
	EdgeCut int64
}

// PartitionerTable compares every partitioner backend at equal k on the
// standard adapted mesh (Local_2-refined rotor): the partitioner-family
// table the paper's "pluggable black box" framing implies but never
// prints. It is the experiment behind the SFC claim: curve-based cuts
// reach multilevel-class balance at a fraction of the cost, and repartition
// incrementally in O(n).
type PartitionerTable struct {
	K    int
	Rows []PartitionerRow
}

// RunPartitionerTable measures all backends on the Local_2-adapted paper
// mesh, partitioning into k parts (k < 1 is treated as 1). Only
// multilevel refines, with classic FM at every level; the SFC methods'
// exact curve cut and inertial's bisection are not refined.
func RunPartitionerTable(k int) *PartitionerTable {
	if k < 1 {
		k = 1
	}
	_, g := adaptedMesh()

	var opt partition.Options
	out := &PartitionerTable{K: k}
	for _, meth := range partition.Methods {
		row := PartitionerRow{Method: meth}
		var asg partition.Assignment
		row.PartitionSeconds = minTime(func() {
			asg, row.Ops = partition.PartitionCounted(g, k, meth, opt)
		})
		row.Imbalance = partition.Imbalance(g, asg, k)
		row.EdgeCut = partition.EdgeCut(g, asg)

		r := partition.NewRepartitioner(g, meth, opt)
		r.Repartition(k, nil)
		row.IncrementalSeconds = minTime(func() { r.Repartition(k, nil) })
		out.Rows = append(out.Rows, row)
	}
	return out
}

// minTime returns the best of up to three timings of f — enough to shrug
// off a scheduler preemption or GC pause for the millisecond-scale
// backends, without tripling the cost of the second-scale eigen-solvers
// (one sample of those is already stable).
func minTime(f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
		if best > 0.25 {
			break
		}
	}
	return best
}

// String renders the comparison table. The ops columns are the work the
// framework counts for the remap acceptance rule and its memory-bound
// refinement share.
func (t *PartitionerTable) String() string {
	tb := newTable(fmt.Sprintf("Partitioner backends on the Local_2-adapted mesh, k=%d (host wall time)", t.K))
	tb.row("method", "t_part (s)", "t_incr (s)", "ops", "refine ops", "Wmax/Wavg", "edge cut")
	for _, r := range t.Rows {
		tb.row(r.Method, fmt.Sprintf("%.6f", r.PartitionSeconds), fmt.Sprintf("%.6f", r.IncrementalSeconds),
			r.Ops.Total, r.Ops.Mem, fmt.Sprintf("%.4f", r.Imbalance), r.EdgeCut)
	}
	return tb.String()
}
