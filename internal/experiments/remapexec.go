package experiments

import (
	"fmt"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/par"
	"plum/internal/partition"
	"plum/internal/refine"
	"plum/internal/remap"
	"plum/internal/sfc"
)

// RemapExecRow is one processor count's remap-execution anatomy.
type RemapExecRow struct {
	P int
	// Moved and Sets are the cost model's C and N; WordsMoved the modeled
	// wire volume.
	Moved      int64
	Sets       int
	WordsMoved int64
	// Ops is the scatter/pack/unpack accounting (par.PredictRemapOps of
	// the executed quantities).
	Ops machine.Ops
	// PackTime/CommTime/RebuildTime/Total decompose the modeled SP2
	// remapping overhead.
	PackTime, CommTime, RebuildTime, Total float64
	// HostSeconds is the real wall time of one ExecuteRemap call on this
	// host at the table's worker knob (best of three).
	HostSeconds float64
}

// RemapExecTable is the remap-execution anatomy the paper's Fig. 9 folds
// into a single "remapping" bar: the per-P cost of actually moving the
// element sets once the mapper has decided where they go, measured over
// the parallel CSR flow scatter at a configurable worker knob.
type RemapExecTable struct {
	Workers int
	Rows    []RemapExecRow
}

// RunRemapExecTable runs the Local_2 balance pipeline on the paper mesh
// and executes the accepted remap for a range of processor counts,
// reporting the execution anatomy at the given worker knob (≤ 0 =
// GOMAXPROCS). The adapted mesh is shared across rows (ExecuteRemap
// mutates only the ownership map, which each row rebuilds).
func RunRemapExecTable(workers int) *RemapExecTable {
	mdl := machine.SP2()
	m := BaseMesh()
	g := dual.Build(m)
	a := adapt.New(m)
	a.MarkStrategyRefine(adapt.Local2, Seed)
	a.Refine()
	g.UpdateWeights(m)

	out := &RemapExecTable{Workers: workers}
	for _, p := range ProcCounts {
		if p < 4 {
			continue // too few flows to be interesting
		}
		asg := partition.Partition(g, p, partition.MethodInertial)
		d := par.NewDist(m, p, asg)
		d.Workers = workers

		s := partition.NewSFCWorkers(g, sfc.Hilbert, workers)
		newPart := s.Repartition(g, p)
		refine.Default(g.N, workers).Refine(g, newPart, p, 2)
		sim := remap.Build(d.Owners(), newPart, g.Wremap, p, 1)
		mp, _ := sim.Heuristic()
		newOwner := make([]int32, len(newPart))
		for v, part := range newPart {
			newOwner[v] = mp[part]
		}

		row := RemapExecRow{P: p}
		orig := d.Owners()
		var res par.RemapResult
		row.HostSeconds = minTime(func() {
			d.SetOwners(orig)
			var err error
			res, err = d.ExecuteRemap(newOwner, mdl)
			if err != nil {
				panic(err)
			}
		})
		row.Moved, row.Sets, row.WordsMoved = res.Moved, res.Sets, res.WordsMoved
		row.Ops = res.Ops
		row.PackTime, row.CommTime, row.RebuildTime, row.Total =
			res.PackTime, res.CommTime, res.RebuildTime, res.Total
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the anatomy table.
func (t *RemapExecTable) String() string {
	tb := newTable(fmt.Sprintf("Remap execution anatomy on the Local_2-adapted mesh (SP2 model, workers=%d)", t.Workers))
	tb.row("P", "moved", "sets", "words", "ops", "crit ops",
		"pack (s)", "comm (s)", "rebuild (s)", "total (s)", "host (s)")
	for _, r := range t.Rows {
		tb.row(r.P, r.Moved, r.Sets, r.WordsMoved, r.Ops.Total, r.Ops.Crit,
			fmt.Sprintf("%.4g", r.PackTime), fmt.Sprintf("%.4g", r.CommTime),
			fmt.Sprintf("%.4g", r.RebuildTime), fmt.Sprintf("%.4g", r.Total),
			fmt.Sprintf("%.6f", r.HostSeconds))
	}
	return tb.String()
}
