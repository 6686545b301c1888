package par

// The wire side of the remap exchange. chargeRemap charges the machine
// model for the Dist's schedule; this file actually moves the element
// records between goroutine ranks, over comm's one framed transport. The
// schedule is a pricing parameter only: flat and aggregated send the same
// frames — each flow's bare records, one message per (src, dst) flow — so
// they draw the same fault fates and recover identically. One rule holds:
// only the flows that exist ride the wire. A rank sends its stripe of the
// window's flow list and receives the flows the by-destination index
// names for it; no rank loops over the other P−1, and a pair that moves
// nothing costs no message, no fault draw and no transport state.
//
// Every expectation — who sends, who receives, how many words — is
// derived from the canonical flow list on both sides, never from
// received data, so no rank can block on a lost transfer: a transfer that
// exhausted its budget is counted as a window failure for the
// transactional retry loop.

import (
	"fmt"

	"plum/internal/comm"
)

// winPlan is one remap's exchange state: the canonical flow list, the
// window in flight — flows [f0, f1) of fi, whose packed records fill buf
// — and the per-rank tallies of one try. The executor builds one per
// remap and moves it from window to window, so a window's Run allocates
// nothing of its own. Everything a rank derives from it is bounded by the
// flows it takes part in.
type winPlan struct {
	fi     *flowIndex
	f0, f1 int
	buf    []int64
	// recv[r] accumulates rank r's verified elements; failCount[r] its
	// transfers that exhausted their attempt budget under a fault plan.
	recv, failCount []int64
	// crash, when non-nil, kills the marked ranks at the window boundary.
	crash []bool
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

// exchange is one rank's side of the window in flight, the function every
// window's comm.World.Run executes. A rank the crash mask marks dies at
// the window boundary — before it sends or receives a word — modeling a
// processor death detected by its peers mid-stage; Run reports it as a
// *comm.CrashError. A live rank sends each of its window flows' records
// straight to the flow's destination and takes its incoming window flows
// in ascending source order, so the exchange is deterministic without a
// barrier, and verifies each received flow against the plan. A transfer
// that exhausted its attempt budget is counted into failCount and the
// caller decides whether to retry the window; a delivered flow of the
// wrong size panics (the transport delivers frames intact, so it would be
// a bug), and Run returns the aggregated panic.
func (pl *winPlan) exchange(c *comm.Comm) {
	self := c.Rank()
	if pl.crash != nil && pl.crash[self] {
		c.Crash()
	}
	for f, hi := pl.out(self); f < hi; f++ {
		c.Send(int(pl.fi.flows[f].Dst), pl.rec(f))
	}
	for _, f := range pl.fi.in(self) {
		want := pl.want(int(f))
		if want == 0 {
			continue
		}
		from := int(pl.fi.flows[f].Src)
		data, ok := c.Recv(from)
		if !ok {
			pl.failCount[self]++
			continue
		}
		if int64(len(data)) != want*recWords {
			panic(fmt.Sprintf("par: window flow %d->%d carried %d words, want %d",
				from, self, len(data), want*recWords))
		}
		pl.recv[self] += want
	}
}
