package experiments

import (
	"fmt"

	"plum/internal/machine"
)

// The high-P communication sweep: a purely modeled experiment charging one
// remap-shaped flow set through both exchange schedules at processor
// counts far beyond what the mesh experiments run, to expose what the
// message-setup term costs as P grows. The flow set mimics a
// settled SFC repartition at scale: each rank exchanges small element sets
// with its curve neighbors (distance 1/2/3 at 4/2/1 elements) plus
// long-range hypercube partners (rank ^ 2^k, one element each) standing in
// for the stray far moves a remap always has. Everything is charged
// through machine.ChargeFlows — the same code path the real executors
// use — so the table is a statement about the model, not a reimplementation
// of it.

// commProcs is the sweep axis: the processor count. Powers of two keep the
// hypercube partner set exact.
var commProcs = []int{64, 1024, 16384, 131072}

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

// CommRow is one (P, exchange) cell: the charge breakdown of moving the
// synthetic flow set under that schedule.
type CommRow struct {
	P        int
	Exchange machine.Exchange
	// Flows is the point-to-point flow count (schedule-independent).
	Flows int
	// Setups is the message count — one setup per message; SetupTime its
	// modeled cost summed over all ranks, which no rank waits for.
	Setups    int64
	SetupTime float64
	// CommTime is the exchange's modeled elapsed time (max over ranks).
	CommTime float64
	// Words is the logical payload.
	Words int64
}

// CommTable is the high-P communication sweep.
type CommTable struct {
	// Rows holds the swept subset when the -exchange flag narrows the
	// schedule axis.
	Rows []CommRow
}

// RunCommTable charges the synthetic high-P flow sets through the given
// exchange schedules (none = both) and returns the sweep. The table is
// purely modeled — no mesh, no goroutines — and byte-identical across
// runs and worker counts.
func RunCommTable(schedules ...machine.Exchange) *CommTable {
	if len(schedules) == 0 {
		schedules = []machine.Exchange{machine.ExchangeFlat, machine.ExchangeAggregated}
	}
	out := &CommTable{}
	mdl := machine.SP2()
	for _, p := range commProcs {
		flows := commFlows(p, mdl.ElemWords)
		for _, x := range schedules {
			clk := machine.NewClock(p)
			ch := mdl.ChargeFlows(clk, x, flows)
			clk.Barrier()
			out.Rows = append(out.Rows, CommRow{
				P: p, Exchange: x,
				Flows:  len(flows),
				Setups: ch.Msgs, SetupTime: ch.SetupTime,
				CommTime: clk.Elapsed(),
				Words:    ch.Words,
			})
		}
	}
	return out
}

// String renders the sweep with the per-P elapsed-time winner marked. The
// output is byte-stable: CI diffs it across GOMAXPROCS and worker counts.
func (t *CommTable) String() string {
	tb := newTable(
		"High-P remap exchange sweep: modeled charges of an SFC-neighbor + hypercube flow set",
		"(SP2 interconnect; setups is the message count, setup (s) its cost summed over ranks, comm (s) the elapsed time)")
	tb.row("P", "exchange", "flows", "setups", "setup (s)", "comm (s)", "words", "")
	for i := 0; i < len(t.Rows); {
		j := i
		best := i
		for j < len(t.Rows) && t.Rows[j].P == t.Rows[i].P {
			if t.Rows[j].CommTime < t.Rows[best].CommTime {
				best = j
			}
			j++
		}
		for k := i; k < j; k++ {
			r := t.Rows[k]
			mark := ""
			if k == best && j-i > 1 {
				mark = " <- min comm"
			}
			tb.row(r.P, r.Exchange.String(), r.Flows, r.Setups,
				fmt.Sprintf("%.4g", r.SetupTime), fmt.Sprintf("%.4g", r.CommTime), r.Words, mark)
		}
		i = j
	}
	return tb.String()
}
