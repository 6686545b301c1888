package par

// The wire side of the exchange schedules. accountRemap charges the
// machine model for a schedule; this file actually moves the element
// records between goroutine ranks under the same schedule, over the plain
// or reliable comm transport. One rule holds on every schedule: only the
// flows that exist ride the wire. A rank sends its stripe of the window's
// flow list and receives the flows the by-destination index names for it;
// no rank loops over the other P−1, and a pair that moves nothing costs
// no message, no fault draw and no transport state.
//
//   - flat: one message per (src, dst) flow, the paper's remap semantics.
//   - aggregated: the same messages, each wrapped in a combined frame
//     (comm.PackCombined) with a per-flow sub-header. The remap table has
//     at most one flow per (src, dst) pair per window, so each frame
//     carries a single sub; the schedule's setup savings — one modeled
//     setup per source instead of one per pair — are machine.ChargeFlows'
//     business, while this path proves the framing end to end.
//   - hierarchical: a real two-level relay. Members gather their window
//     flows to the node leader in one combined frame, leaders exchange
//     one combined frame per communicating node pair, leaders scatter
//     per-member combined frames, and every hop routes by the sub-frame
//     headers.
//
// Every expectation — who sends, who receives, how many words — is
// derived from the canonical flow list on both sides of every hop, never
// from received data. A sender therefore always sends exactly the frames
// its receivers wait for (possibly partial or empty after an upstream
// reliable failure), so no rank can block on a lost transfer: missing
// flows surface as want-mismatches at their final destination and are
// counted as window failures for the transactional retry loop.

import (
	"fmt"
	"slices"

	"plum/internal/comm"
	"plum/internal/machine"
)

// Message tags of the exchange paths (comm.Gather uses a negative one).
const (
	tagFlow = 100 + iota
	tagGatherUp
	tagInterNode
	tagScatterDown
)

// winPlan describes one exchange window over the canonical flow list:
// flows [f0, f1) of fi, whose packed records fill buf. Everything a rank
// derives from it is bounded by the flows it takes part in.
type winPlan struct {
	fi     *flowIndex
	f0, f1 int
	buf    []int64
}

// rec returns window flow f's wire records: a zero-copy subslice of buf.
func (pl *winPlan) rec(f int) []int64 {
	base := pl.fi.flowStart[pl.f0]
	return pl.buf[(pl.fi.flowStart[f]-base)*recWords : (pl.fi.flowStart[f+1]-base)*recWords]
}

// want returns flow f's planned element count, zero outside the window.
func (pl *winPlan) want(f int) int64 {
	if f < pl.f0 || f >= pl.f1 {
		return 0
	}
	return pl.fi.flowStart[f+1] - pl.fi.flowStart[f]
}

// out returns the window's flows [lo, hi) that ranks [r0, r1) send.
func (pl *winPlan) out(r0, r1 int) (lo, hi int) {
	lo = max(int(pl.fi.outStart[r0]), pl.f0)
	return lo, max(lo, min(int(pl.fi.outStart[r1]), pl.f1))
}

// hasIn reports whether rank r receives a flow of the window.
func (pl *winPlan) hasIn(r int) bool {
	return slices.ContainsFunc(pl.fi.in(r), func(f int32) bool { return pl.want(int(f)) > 0 })
}

// sub returns flow f as a combined-frame sub carrying data.
func (pl *winPlan) sub(f int, data []int64) comm.SubFrame {
	fl := pl.fi.flows[f]
	return comm.SubFrame{Src: fl.src, Dst: fl.dst, Data: data}
}

// exchangeWindow runs one window of the remap exchange under the selected
// schedule, accumulating verified element counts into recv[rank]. On the
// reliable path (reliable=true) transfers that exhausted their attempt
// budget are counted into failCount[rank] instead of delivered, and the
// caller decides whether to retry the window; on the plain path failCount
// may be nil and any missing or mismatched flow panics (the transport
// cannot lose data, so it would be a bug). A non-nil crash mask kills the
// marked ranks at the window boundary — before they send or receive a
// word — modeling a processor death detected by its peers mid-stage; Run
// reports it as a *comm.CrashError. The returned error is a rank panic
// aggregated by comm.World.Run.
func exchangeWindow(w *comm.World, x machine.Exchange, topo machine.Topology, pl *winPlan, reliable bool, recv, failCount []int64, crash []bool) error {
	body := func(c *comm.Comm) { exchangeDirect(c, pl, x == machine.ExchangeAggregated, reliable, recv, failCount) }
	if x == machine.ExchangeHierarchical {
		body = func(c *comm.Comm) { exchangeHierarchical(c, topo, pl, reliable, recv, failCount) }
	}
	if crash == nil {
		return w.Run(body)
	}
	return w.Run(func(c *comm.Comm) {
		if crash[c.Rank()] {
			c.Crash()
		}
		body(c)
	})
}

// sendFrame sends one frame over the selected transport.
func sendFrame(c *comm.Comm, reliable bool, dst, tag int, frame []int64) {
	if reliable {
		c.SendReliable(dst, tag, frame)
	} else {
		c.Send(dst, tag, frame)
	}
}

// recvFrame takes one frame from src; ok is false when the reliable
// transfer exhausted its budget.
func recvFrame(c *comm.Comm, reliable bool, src, tag int) ([]int64, bool) {
	if reliable {
		d, _, ok := c.RecvReliable(src, tag)
		return d, ok
	}
	d, _ := c.Recv(src, tag)
	return d, true
}

// exchangeDirect is the flat and the aggregated schedule: every rank
// sends each of its window flows straight to the flow's destination —
// bare records, or (combined) wrapped in a single-sub combined frame —
// and takes its incoming window flows in ascending source order, so the
// exchange is deterministic without a barrier. Each received flow is
// verified against the plan.
func exchangeDirect(c *comm.Comm, pl *winPlan, combined, reliable bool, recv, failCount []int64) {
	self := c.Rank()
	lo, hi := pl.out(self, self+1)
	for f := lo; f < hi; f++ {
		data := pl.rec(f)
		if combined {
			data = comm.PackCombined([]comm.SubFrame{pl.sub(f, data)})
		}
		sendFrame(c, reliable, int(pl.fi.flows[f].dst), tagFlow, data)
	}
	for _, f := range pl.fi.in(self) {
		want := pl.want(int(f))
		if want == 0 {
			continue
		}
		from := pl.fi.flows[f].src
		data, ok := recvFrame(c, reliable, int(from), tagFlow)
		if !ok {
			failCount[self]++
			continue
		}
		if combined {
			subs := unpackVia(data, self, c.P())
			if len(subs) != 1 || subs[0].Src != from || int(subs[0].Dst) != self {
				panic(fmt.Sprintf("par: combined flow %d->%d does not match its plan (%d subs)",
					from, self, len(subs)))
			}
			data = subs[0].Data
		}
		if int64(len(data)) != want*recWords {
			panic(fmt.Sprintf("par: window flow %d->%d carried %d words, want %d",
				from, self, len(data), want*recWords))
		}
		recv[self] += want
	}
}

// unpackVia unpacks a combined frame that arrived over a checksum-clean
// delivery and bounds-checks every sub-frame's endpoints. A structural
// violation here is a routing bug, not an injected fault, so it panics in
// both modes.
func unpackVia(frame []int64, self, p int) []comm.SubFrame {
	subs, err := comm.UnpackCombined(frame)
	if err != nil {
		panic(fmt.Sprintf("par: rank %d received malformed combined frame: %v", self, err))
	}
	for _, s := range subs {
		if s.Src < 0 || int(s.Src) >= p || s.Dst < 0 || int(s.Dst) >= p {
			panic(fmt.Sprintf("par: rank %d received sub-frame with invalid route %d->%d", self, s.Src, s.Dst))
		}
	}
	return subs
}

// collectDelivered verifies the window flows delivered to rank self
// against the plan: every expected flow must be present with exactly
// want·recWords words. A missing flow counts as a transfer failure on the
// reliable path (an upstream hop exhausted its budget) and panics on the
// plain path; a present-but-wrong-size flow is always a bug. delivered is
// keyed by flow id.
func collectDelivered(pl *winPlan, self int, delivered map[int][]int64, reliable bool, recv, failCount []int64) {
	for _, f := range pl.fi.in(self) {
		want := pl.want(int(f))
		if want == 0 {
			continue
		}
		src := pl.fi.flows[f].src
		data, ok := delivered[int(f)]
		switch {
		case ok && int64(len(data)) == want*recWords:
			recv[self] += want
		case ok:
			panic(fmt.Sprintf("par: window flow %d->%d carried %d words, want %d",
				src, self, len(data), want*recWords))
		case reliable:
			failCount[self]++
		default:
			panic(fmt.Sprintf("par: window flow %d->%d missing from hierarchical delivery", src, self))
		}
	}
}

// exchangeHierarchical relays the window through node leaders in three
// hops — gather up, inter-node, scatter down — with every frame built and
// received against the plan. A leader walks its own node's stripe of the
// flow list and its members' by-destination lists; no rank walks the
// whole window.
func exchangeHierarchical(c *comm.Comm, topo machine.Topology, pl *winPlan, reliable bool, recv, failCount []int64) {
	p := c.P()
	self := c.Rank()
	node := topo.Node(self)
	leader := topo.Leader(node)
	// flowOf resolves a routed sub-frame to its window flow; a sub the
	// plan does not hold is a routing bug.
	flowOf := func(s comm.SubFrame) int {
		f := pl.fi.find(s.Src, s.Dst)
		if pl.want(f) == 0 {
			panic(fmt.Sprintf("par: rank %d received sub-frame %d->%d outside the window plan", self, s.Src, s.Dst))
		}
		return f
	}

	if self != leader {
		// Member: gather outgoing window flows up to the leader in one
		// combined frame (destination-ascending sub order) ...
		if f, hi := pl.out(self, self+1); f < hi {
			var subs []comm.SubFrame
			for ; f < hi; f++ {
				subs = append(subs, pl.sub(f, pl.rec(f)))
			}
			sendFrame(c, reliable, leader, tagGatherUp, comm.PackCombined(subs))
		}
		// ... and take incoming flows from the leader's scatter frame. A
		// failed scatter delivery leaves the map empty, so every expected
		// flow is counted as a miss.
		if pl.hasIn(self) {
			delivered := make(map[int][]int64)
			if frame, ok := recvFrame(c, reliable, leader, tagScatterDown); ok {
				for _, s := range unpackVia(frame, self, p) {
					if int(s.Dst) != self {
						panic(fmt.Sprintf("par: rank %d received scatter sub-frame for rank %d", self, s.Dst))
					}
					delivered[flowOf(s)] = s.Data
				}
			}
			collectDelivered(pl, self, delivered, reliable, recv, failCount)
		}
		return
	}

	// Leader: route the node's window traffic. have maps flow id to the
	// records currently held; the leader's own flows ride free.
	have := make(map[int][]int64)
	for f, hi := pl.out(self, self+1); f < hi; f++ {
		have[f] = pl.rec(f)
	}
	end := self + 1 // one past the node's last rank
	for ; end < p && topo.Node(end) == node; end++ {
		m := end
		if lo, hi := pl.out(m, m+1); lo >= hi {
			continue
		}
		frame, ok := recvFrame(c, reliable, m, tagGatherUp)
		if !ok {
			continue // the member's flows surface as misses at their destinations
		}
		for _, s := range unpackVia(frame, self, p) {
			if int(s.Src) != m {
				panic(fmt.Sprintf("par: leader %d got gather sub-frame claiming source %d from member %d", self, s.Src, m))
			}
			have[flowOf(s)] = s.Data
		}
	}

	// Inter-node: one combined frame per communicating node pair, sent
	// even when gather failures left it partial or empty — the receiving
	// leader's expectation comes from the plan, not from what survived.
	lo, hi := pl.out(self, end)
	var outNodes, inNodes []int // the nodes this one sends a frame to, and takes one from
	for _, fl := range pl.fi.flows[lo:hi] {
		outNodes = append(outNodes, topo.Node(int(fl.dst)))
	}
	for r := self; r < end; r++ {
		for _, f := range pl.fi.in(r) {
			if pl.want(int(f)) > 0 {
				inNodes = append(inNodes, topo.Node(int(pl.fi.flows[f].src)))
			}
		}
	}
	peers := func(nodes []int) []int {
		slices.Sort(nodes)
		return slices.DeleteFunc(slices.Compact(nodes), func(n int) bool { return n == node })
	}
	for _, nb := range peers(outNodes) {
		var subs []comm.SubFrame
		for f := lo; f < hi; f++ {
			if topo.Node(int(pl.fi.flows[f].dst)) != nb {
				continue
			}
			if data, ok := have[f]; ok {
				subs = append(subs, pl.sub(f, data))
			}
		}
		sendFrame(c, reliable, topo.Leader(nb), tagInterNode, comm.PackCombined(subs))
	}
	for _, na := range peers(inNodes) {
		frame, ok := recvFrame(c, reliable, topo.Leader(na), tagInterNode)
		if !ok {
			continue
		}
		for _, s := range unpackVia(frame, self, p) {
			if topo.Node(int(s.Src)) != na || topo.Node(int(s.Dst)) != node {
				panic(fmt.Sprintf("par: leader %d got inter-node sub-frame %d->%d from node %d", self, s.Src, s.Dst, na))
			}
			have[flowOf(s)] = s.Data
		}
	}

	// Scatter: one combined frame per member with expected incoming flows
	// (source-ascending sub order), again sent even when partial.
	for m := self + 1; m < end; m++ {
		if !pl.hasIn(m) {
			continue
		}
		var subs []comm.SubFrame
		for _, f := range pl.fi.in(m) {
			if data, ok := have[int(f)]; ok && pl.want(int(f)) > 0 {
				subs = append(subs, pl.sub(int(f), data))
			}
		}
		sendFrame(c, reliable, m, tagScatterDown, comm.PackCombined(subs))
	}
	// The leader's own incoming flows never leave the routing table.
	if pl.hasIn(self) {
		collectDelivered(pl, self, have, reliable, recv, failCount)
	}
}
