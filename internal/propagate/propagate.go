// Package propagate is the deterministic frontier-propagation engine
// behind the 3D_TAG adaption phases. Its loop is the one marking closure
// (the iterative pattern upgrade): the serial kernel closes every
// refinement round through it on one rank, uncharged
// (adapt.Adaptor.Refine), and the distributed refinement closes the first
// round on the P ranks and charges it (internal/par's CloseRefine). ParallelCoarsen charges only
// its shared-mark consistency exchange through the engine
// (Engine.ChargeExchange): its conformity re-refinement closes through the
// loop on one rank, uncharged.
//
// The engine runs the paper's marking propagation as bulk-synchronous
// supersteps over an element frontier. Each round scans the frontier in
// ascending element order, gathering every element's newly required
// edges, commits the marks in ascending edge order, and batches the
// round's shared-edge notifications, one word each, summed per (src, dst)
// pair as they are made (machine.Pairs) and charged in sorted pair order —
// not per-rank maps, whose iteration order made the modeled times run-to-run
// nondeterministic.
// Every order depends only on the frontier, so the final mark set, the
// round count, the message/word traffic, and the modeled clock are
// byte-identical run to run.
//
// The notification exchanges follow the paper's bulk-synchronous model:
// one message per nonempty (src, dst) rank pair per round, Tsetup paid
// per pair by the sender (machine.Model.ChargeFlowsRetry).
package propagate

import (
	"plum/internal/fault"
	"plum/internal/machine"
)

// World is the mesh-facing surface the engine drives. adapt.World
// implements it on one rank, and the distributed layer (internal/par)
// gives that world the owners and shared-processor lists of its P ranks;
// tests substitute synthetic graphs.
type World interface {
	// Owner returns the rank owning element el.
	Owner(el int32) int32
	// Propose appends the edges element el newly requires under the
	// current marks (its pattern upgrade's add-set) to buf and returns
	// it. A round proposes for its whole frontier before it commits, so
	// every proposal reads the marks as the round found them. The proposal
	// rule must be monotone in the mark set — marking more edges never shrinks an
	// element's requirement — which makes the fixpoint independent of
	// visit order.
	Propose(el int32, buf []int32) []int32
	// Commit marks edge e. Called serially, once per edge, in ascending
	// edge order.
	Commit(e int32)
	// Reach appends the active elements sharing edge e to elems and
	// returns it — the next round's frontier candidates.
	Reach(e int32, elems []int32) []int32
	// SPL appends the sorted shared-processor list of edge e to spl and
	// returns it; a list longer than one marks a shared edge.
	SPL(e int32, spl []int32) []int32
}

// Result reports one propagation run (or one standalone exchange).
type Result struct {
	// Rounds is the number of supersteps executed.
	Rounds int
	// Visits is the number of frontier element examinations performed.
	Visits int64
	// Marked is the number of edges newly committed.
	Marked int64
	// Msgs and Words count the notification traffic: one message per
	// (src, dst) pair per round.
	Msgs, Words int64
	// SetupTime is the summed modeled message-setup charge of the
	// exchanges, reported separately so adaption accounting can show the
	// setup/volume split alongside the remap executor's.
	SetupTime float64
	// Ops is the engine's abstract work accounting: frontier visits and
	// the serial commit drain are memory-bound, pair bookkeeping
	// compute-bound.
	Ops machine.Ops
}

// Engine is the frontier-propagation engine of one adaption pass. It is a
// plain value built where it is used: nothing is armed or shared between
// passes, and only the buffers in Scratch are carried. Marks, rounds,
// traffic, and the modeled clock depend only on the frontier and the
// world.
type Engine struct {
	// Faults, when non-nil, replays a deterministic fault plan against
	// each charged message and bills the sender the modeled recovery,
	// Model.RetryTime: extra sends at the message's own MsgTime, backoff
	// units at Model.RetryBackoff. Each message draws its fate per
	// (src, dst). Charging runs in canonical (src, dst) order, so the
	// model's attempt counters are the same run to run. nil adds
	// exact zeros: the fault-free clock is bit-identical.
	Faults *fault.ExchangeModel
	// Scratch, when non-nil, holds Run's buffers from one call to the
	// next; nil runs on fresh ones.
	Scratch *Scratch
}

// ChargeExchange charges one bulk exchange of shared-object notifications,
// one message per pair, given the per-(src, dst) word counts in canonical
// sorted order (machine.Pairs.Flows), and returns the charge breakdown. It
// does not barrier; callers own the superstep structure.
func (eng Engine) ChargeExchange(clk *machine.Clock, mdl machine.Model, pairs []machine.Flow) machine.ExchangeCharge {
	return mdl.ChargeFlowsRetry(clk, pairs, func(src, dst int32, words int64) {
		// An undelivered notification escalates out of band; its charge is
		// the same resends and backoff.
		extra, backoff, _ := eng.Faults.Resends(src, dst)
		if extra == 0 && backoff == 0 {
			return
		}
		clk.Add(int(src), mdl.RetryTime(extra, backoff, words))
	})
}
