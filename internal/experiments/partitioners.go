package experiments

import (
	"fmt"

	"plum/internal/machine"
	"plum/internal/partition"
)

// PartitionerRow is one backend's quality/cost measurement on the
// adapted paper-scale dual graph.
type PartitionerRow struct {
	Method partition.Method
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
// exact curve cut is not refined. The table counts work and never times
// the host, so it is deterministic; bench/ times the partitioners.
func RunPartitionerTable(k int) *PartitionerTable {
	if k < 1 {
		k = 1
	}
	_, g := adaptedMesh()

	out := &PartitionerTable{K: k}
	for _, meth := range partition.Methods {
		asg, ops := partition.PartitionCounted(g, k, meth, partition.Options{})
		out.Rows = append(out.Rows, PartitionerRow{
			Method:    meth,
			Ops:       ops,
			Imbalance: partition.Imbalance(g, asg, k),
			EdgeCut:   partition.EdgeCut(g, asg),
		})
	}
	return out
}

// String renders the comparison table. The ops columns are the work the
// framework counts for the remap acceptance rule and its memory-bound
// refinement share.
func (t *PartitionerTable) String() string {
	tb := newTable(fmt.Sprintf("Partitioner backends on the Local_2-adapted mesh, k=%d", t.K))
	tb.row("method", "ops", "refine ops", "Wmax/Wavg", "edge cut")
	for _, r := range t.Rows {
		tb.row(r.Method, r.Ops.Total, r.Ops.Mem, fmt.Sprintf("%.4f", r.Imbalance), r.EdgeCut)
	}
	return tb.String()
}
