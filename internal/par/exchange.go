package par

// The wire side of the remap exchange. accountRemap charges the machine
// model for the Dist's schedule; this file actually moves the element
// records between goroutine ranks, over the plain or reliable comm
// transport. The schedule is a pricing parameter only: flat and
// aggregated send the same frames — each flow's bare records, one
// message per (src, dst) flow — so they draw the same fault fates and
// recover identically. One rule holds: only the flows that exist ride
// the wire. A rank sends its stripe of the window's flow list and
// receives the flows the by-destination index names for it; no rank
// loops over the other P−1, and a pair that moves nothing costs no
// message, no fault draw and no transport state.
//
// Every expectation — who sends, who receives, how many words — is
// derived from the canonical flow list on both sides, never from
// received data, so no rank can block on a lost transfer: a reliable
// transfer that exhausted its budget is counted as a window failure for
// the transactional retry loop.

import (
	"fmt"

	"plum/internal/comm"
)

// tagFlow tags the exchange's messages (comm.Gather uses a negative one).
const tagFlow = 100

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

// out returns the window's flows [lo, hi) that rank r sends.
func (pl *winPlan) out(r int) (lo, hi int) {
	lo = max(int(pl.fi.outStart[r]), pl.f0)
	return lo, max(lo, min(int(pl.fi.outStart[r+1]), pl.f1))
}

// exchangeWindow runs one window of the remap exchange, accumulating
// verified element counts into recv[rank]. On the reliable path
// (reliable=true) transfers that exhausted their attempt budget are
// counted into failCount[rank] instead of delivered, and the caller
// decides whether to retry the window; on the plain path failCount may be
// nil and any mismatched flow panics (the transport cannot lose data, so
// it would be a bug). A non-nil crash mask kills the marked ranks at the
// window boundary — before they send or receive a word — modeling a
// processor death detected by its peers mid-stage; Run reports it as a
// *comm.CrashError. The returned error is a rank panic aggregated by
// comm.World.Run.
func exchangeWindow(w *comm.World, pl *winPlan, reliable bool, recv, failCount []int64, crash []bool) error {
	return w.Run(func(c *comm.Comm) {
		if crash != nil && crash[c.Rank()] {
			c.Crash()
		}
		exchangeFlows(c, pl, reliable, recv, failCount)
	})
}

// sendFrame sends one frame over the selected transport.
func sendFrame(c *comm.Comm, reliable bool, dst int, frame []int64) {
	if reliable {
		c.SendReliable(dst, tagFlow, frame)
	} else {
		c.Send(dst, tagFlow, frame)
	}
}

// recvFrame takes one frame from src; ok is false when the reliable
// transfer exhausted its budget.
func recvFrame(c *comm.Comm, reliable bool, src int) ([]int64, bool) {
	if reliable {
		d, _, ok := c.RecvReliable(src, tagFlow)
		return d, ok
	}
	d, _ := c.Recv(src, tagFlow)
	return d, true
}

// exchangeFlows is one rank's side of a window: it sends each of its
// window flows' records straight to the flow's destination and takes its
// incoming window flows in ascending source order, so the exchange is
// deterministic without a barrier. Each received flow is verified against
// the plan.
func exchangeFlows(c *comm.Comm, pl *winPlan, reliable bool, recv, failCount []int64) {
	self := c.Rank()
	for f, hi := pl.out(self); f < hi; f++ {
		sendFrame(c, reliable, int(pl.fi.flows[f].dst), pl.rec(f))
	}
	for _, f := range pl.fi.in(self) {
		want := pl.want(int(f))
		if want == 0 {
			continue
		}
		from := int(pl.fi.flows[f].src)
		data, ok := recvFrame(c, reliable, from)
		if !ok {
			failCount[self]++
			continue
		}
		if int64(len(data)) != want*recWords {
			panic(fmt.Sprintf("par: window flow %d->%d carried %d words, want %d",
				from, self, len(data), want*recWords))
		}
		recv[self] += want
	}
}
