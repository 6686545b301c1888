package experiments

import (
	"fmt"

	"plum/internal/machine"
)

// The high-P communication sweep: a purely modeled experiment charging one
// remap-shaped flow set through every exchange schedule at processor
// counts far beyond what the mesh experiments run, to expose where the
// message-setup term flips the schedule ranking. The flow set mimics a
// settled SFC repartition at scale: each rank exchanges small element sets
// with its curve neighbors (distance 1/2/3 at 4/2/1 elements) plus
// long-range hypercube partners (rank ^ 2^k, one element each) standing in
// for the stray far moves a remap always has. Everything is charged
// through machine.ChargeFlows — the same code path the real executors
// use — so the table is a statement about the model, not a reimplementation
// of it.

// commProcs and commNodes are the sweep axes: processor count × ranks per
// node. Powers of two keep the hypercube partner set exact.
var (
	commProcs = []int{64, 1024, 16384, 131072}
	commNodes = []int{16, 64}
)

// commFlows builds the canonical src-major flow list for p ranks: SFC
// curve neighbors at distance 1, 2, 3 carrying 4, 2, 1 elements, plus
// hypercube partners src^2^k for k = 4 … log2(p)−1 carrying one element.
// Words per flow follow the remap executor's convention: ElemWords per
// element plus the 1/32 header overhead.
func commFlows(p, elemWords int) []machine.Flow {
	wordsFor := func(elems int64) int64 {
		w := elems * int64(elemWords)
		return w + w/32
	}
	var flows []machine.Flow
	var dsts []int32
	for src := 0; src < p; src++ {
		dsts = dsts[:0]
		for _, nb := range []struct{ d, elems int }{{1, 4}, {2, 2}, {3, 1}} {
			if src+nb.d < p {
				dsts = append(dsts, int32(src+nb.d))
			}
			if src-nb.d >= 0 {
				dsts = append(dsts, int32(src-nb.d))
			}
		}
		for k := 4; 1<<k < p; k++ {
			dsts = append(dsts, int32(src^(1<<k)))
		}
		elems := func(dst int32) int64 {
			switch d := int(dst) - src; {
			case d == 1 || d == -1:
				return 4
			case d == 2 || d == -2:
				return 2
			default:
				return 1
			}
		}
		// Ascending dst within each src keeps the list canonical without a
		// global sort.
		for i := 1; i < len(dsts); i++ {
			for j := i; j > 0 && dsts[j] < dsts[j-1]; j-- {
				dsts[j], dsts[j-1] = dsts[j-1], dsts[j]
			}
		}
		for _, dst := range dsts {
			flows = append(flows, machine.Flow{Src: int32(src), Dst: dst, Words: wordsFor(elems(dst))})
		}
	}
	return flows
}

// CommRow is one (P, ranks-per-node, exchange) cell: the charge breakdown
// of moving the synthetic flow set under that schedule.
type CommRow struct {
	P, RPN   int
	Exchange machine.Exchange
	// Flows is the point-to-point flow count (schedule-independent).
	Flows int
	// Setups is the message count — one setup per message; SetupTime its
	// summed modeled cost, the column the schedules exist to shrink.
	Setups    int64
	SetupTime float64
	// CommTime is the exchange's modeled elapsed time (max over ranks).
	CommTime float64
	// Words is the logical payload; IntraWords/InterWords the wire traffic
	// per link level (hierarchical forwarding stores words twice).
	Words, IntraWords, InterWords int64
}

// CommTable is the high-P communication sweep.
type CommTable struct {
	// Rows holds the swept subset when the -exchange / -nodesize flags
	// narrow the axes.
	Rows []CommRow
}

// RunCommTable charges the synthetic high-P flow sets through the given
// exchange schedules (none = all three) and returns the sweep; nodesize
// narrows the ranks-per-node axis (0 sweeps the defaults). The table is
// purely modeled — no mesh, no goroutines — and byte-identical across
// runs and worker counts.
func RunCommTable(nodesize int, schedules ...machine.Exchange) *CommTable {
	if len(schedules) == 0 {
		schedules = []machine.Exchange{machine.ExchangeFlat, machine.ExchangeAggregated, machine.ExchangeHierarchical}
	}
	rpns := commNodes
	if nodesize > 0 {
		rpns = []int{nodesize}
	}
	out := &CommTable{}
	for _, p := range commProcs {
		mdl := machine.SP2()
		flows := commFlows(p, mdl.ElemWords)
		for _, rpn := range rpns {
			mdl.Topo = machine.NodeTopology(rpn)
			for _, x := range schedules {
				clk := machine.NewClock(p)
				ch := mdl.ChargeFlows(clk, x, flows)
				clk.Barrier()
				out.Rows = append(out.Rows, CommRow{
					P: p, RPN: rpn, Exchange: x,
					Flows:  len(flows),
					Setups: ch.Msgs, SetupTime: ch.SetupTime,
					CommTime: clk.Elapsed(),
					Words:    ch.Words, IntraWords: ch.IntraWords, InterWords: ch.InterWords,
				})
			}
		}
	}
	return out
}

// String renders the sweep with the per-(P, node) setup-time winner
// marked. The output is byte-stable: CI diffs it across GOMAXPROCS and
// worker counts.
func (t *CommTable) String() string {
	tb := newTable(
		"High-P remap exchange sweep: modeled charges of an SFC-neighbor + hypercube flow set",
		"(SP2 interconnect, intra-node 5µs setup / 0.05µs word; setups is the message count)")
	tb.row("P", "node", "exchange", "flows", "setups", "setup (s)", "comm (s)", "words", "intra wds", "inter wds", "")
	for i := 0; i < len(t.Rows); {
		j := i
		best := i
		for j < len(t.Rows) && t.Rows[j].P == t.Rows[i].P && t.Rows[j].RPN == t.Rows[i].RPN {
			if t.Rows[j].SetupTime < t.Rows[best].SetupTime {
				best = j
			}
			j++
		}
		for k := i; k < j; k++ {
			r := t.Rows[k]
			mark := ""
			if k == best && j-i > 1 {
				mark = " <- min setup"
			}
			tb.row(r.P, r.RPN, r.Exchange.String(), r.Flows, r.Setups,
				fmt.Sprintf("%.4g", r.SetupTime), fmt.Sprintf("%.4g", r.CommTime),
				r.Words, r.IntraWords, r.InterWords, mark)
		}
		i = j
	}
	return tb.String()
}
