// Package propagate is the deterministic parallel frontier-propagation
// engine behind the distributed 3D_TAG adaption phases: the iterative
// pattern-upgrade process of ParallelRefine and the shared-mark
// consistency exchange of ParallelCoarsen (internal/par).
//
// The engine runs the paper's marking propagation as bulk-synchronous
// supersteps over an element frontier. Each round chunks the frontier
// across worker goroutines, gathers every element's newly required edges
// into per-worker buckets, merges the buckets in canonical element order,
// commits the marks serially in ascending edge order, and lays the
// round's shared-edge notifications out as a CSR outbox sorted by
// (src, dst, edge) — replacing the per-rank map[int32][]int64 outboxes
// whose iteration order made the modeled times run-to-run nondeterministic.
// Because every merge happens in a fixed order that depends only on the
// frontier (never on the chunking), the final mark set, the round count,
// the message/word traffic, and the modeled clock are byte-identical at
// every worker count.
//
// There is one engine; the message model of its notification exchanges is
// a machine.Exchange parameter, under two -propagator spellings:
//
//   - bulksync (machine.ExchangeFlat, the zero value): the paper's
//     exchange — one message per nonempty (src, dst) rank pair per round,
//     Tsetup paid per pair.
//   - aggregated (machine.ExchangeAggregated): message aggregation for
//     high processor counts (cf. the wait-free AMR literature): each rank
//     concatenates all of a round's notifications into one combined
//     buffer laid out per destination, paying one message setup per
//     source rank per round instead of one per pair; destinations drain
//     their combined inbox at the per-word rate. Same words, O(P)
//     messages instead of O(P²).
package propagate

import (
	"slices"

	"plum/internal/chunk"
	"plum/internal/fault"
	"plum/internal/machine"
)

// SerialCutoff is the frontier size below which a round's proposal scan
// falls back to a serial loop. It is deliberately lower than the remap
// scatter's cutoff: a frontier visit does six pattern probes and an
// adjacency chase per element, so the chunk bookkeeping amortizes much
// earlier than on the record-copy scans.
const SerialCutoff = 1 << 10

// EffectiveWorkers resolves the worker count a propagation round actually
// runs with: the knob (≤ 0 = GOMAXPROCS), clamped to 1 below SerialCutoff
// frontier elements. Cost models must divide the parallel phases by this
// figure, not by the raw knob — the serial fallback is charged serially.
func EffectiveWorkers(n, workers int) int {
	return chunk.EffectiveWorkers(n, workers, SerialCutoff)
}

// World is the mesh-facing surface the engine drives. The distributed
// layer (par.Dist + adapt.Adaptor) implements it; tests substitute
// synthetic graphs.
type World interface {
	// Owner returns the rank owning element el.
	Owner(el int32) int32
	// Propose appends the edges element el newly requires under the
	// current marks (its pattern upgrade's add-set) to buf and returns
	// it. Called concurrently from worker goroutines during the frontier
	// scan; it must only read shared state. The proposal rule must be
	// monotone in the mark set — marking more edges never shrinks an
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

// PairWords is one (src, dst) notification batch of an exchange: Words
// message words bound from rank Src to rank Dst. It is the machine
// model's Flow — the adaption notification exchanges and the remap
// payload exchange feed the same charge functions, so their communication
// models can never drift apart.
type PairWords = machine.Flow

// comparePairs orders batches by (src, dst) — the canonical exchange
// order every backend charges in.
func comparePairs(a, b PairWords) int {
	switch {
	case a.Src != b.Src:
		return int(a.Src) - int(b.Src)
	case a.Dst != b.Dst:
		return int(a.Dst) - int(b.Dst)
	}
	return 0
}

// PairsFromSPL appends the ordered (src, dst) expansion of one shared
// object's processor list to out — words message words from every sharer
// to every other sharer — and returns it. Feed the accumulated raw list
// to AggregatePairs for the canonical charge order.
func PairsFromSPL(out []PairWords, spl []int32, words int64) []PairWords {
	for _, r := range spl {
		for _, o := range spl {
			if r != o {
				out = append(out, PairWords{Src: r, Dst: o, Words: words})
			}
		}
	}
	return out
}

// AggregatePairs sorts raw (src, dst, words) contributions by (src, dst)
// and merges duplicates, returning the canonical batch list
// Engine.ChargeExchange consumes. The input is clobbered.
func AggregatePairs(raw []PairWords) []PairWords {
	if len(raw) == 0 {
		return nil
	}
	slices.SortFunc(raw, comparePairs)
	out := raw[:1]
	for _, pw := range raw[1:] {
		if last := &out[len(out)-1]; last.Src == pw.Src && last.Dst == pw.Dst {
			last.Words += pw.Words
		} else {
			out = append(out, pw)
		}
	}
	return out
}

// Result reports one propagation run (or one standalone exchange).
type Result struct {
	// Rounds is the number of supersteps executed.
	Rounds int
	// Visits is the number of frontier element examinations performed.
	Visits int64
	// Marked is the number of edges newly committed.
	Marked int64
	// Msgs and Words count the notification traffic under the engine's
	// exchange schedule. Words is schedule-invariant; Msgs is not
	// (aggregation exists to shrink it).
	Msgs, Words int64
	// SetupTime is the summed modeled message-setup charge of the
	// exchanges — the slice of the clock the exchange schedule
	// controls — reported separately so adaption accounting can show the
	// setup/volume split alongside the remap executor's.
	SetupTime float64
	// Ops is the engine's abstract work accounting: frontier visits and
	// the serial commit drain are memory-bound, pair bookkeeping
	// compute-bound. Total and MemTotal are worker-invariant, Crit/MemCrit
	// reflect the effective worker count of each round's scan.
	Ops machine.Ops
}

// Engine is the frontier-propagation engine of one adaption pass. It is a
// plain value built where it is used: nothing is armed, shared or carried
// between passes. Marks, rounds, traffic, and the modeled clock depend
// only on the frontier and the world, never on Workers.
type Engine struct {
	// Exchange is the message model of the notification exchanges (see
	// the package comment); the zero value is the paper's bulksync.
	Exchange machine.Exchange
	// Workers bounds the worker goroutines of the frontier scans (≤ 0 =
	// GOMAXPROCS).
	Workers int
	// Faults, when non-nil, replays a deterministic fault plan against
	// each charged message and bills the sender the modeled recovery:
	// extra sends at the message's own MsgTime, backoff units at
	// Model.RetryBackoff. Per-pair messages draw their fate per
	// (src, dst); a combined frame draws one fate keyed on the source and
	// the machine.CombinedDst sentinel, and a resend repays the whole
	// combined MsgTime — aggregation batches the retries exactly as it
	// batches the sends. Charging runs serially in canonical (src, dst)
	// order, so the model's attempt counters are worker-invariant. nil
	// adds exact zeros: the fault-free clock is bit-identical.
	Faults *fault.ExchangeModel
}

// ChargeExchange charges one bulk exchange of shared-object notifications
// under the engine's schedule, given the per-(src, dst) word counts in
// canonical sorted order (see AggregatePairs), and returns the charge
// breakdown. It does not barrier; callers own the superstep structure.
func (eng Engine) ChargeExchange(clk *machine.Clock, mdl machine.Model, pairs []PairWords) machine.ExchangeCharge {
	return mdl.ChargeFlowsRetry(clk, eng.Exchange, pairs, func(src, dst int32, words int64) {
		extra, backoff := eng.Faults.Resends(src, dst)
		if extra == 0 && backoff == 0 {
			return
		}
		clk.Add(int(src), float64(extra)*mdl.MsgTime(words)+float64(backoff)*mdl.RetryBackoff)
	})
}

// Names lists the -propagator spellings, indexed by the machine.Exchange
// each selects (default first) — the table for CLI help and tests.
var Names = []string{"bulksync", "aggregated"}

// ByName resolves a -propagator spelling to the engine's exchange
// schedule; "" selects bulksync.
func ByName(name string) (machine.Exchange, bool) {
	switch name {
	case "", "bulksync":
		return machine.ExchangeFlat, true
	case "aggregated":
		return machine.ExchangeAggregated, true
	}
	return 0, false
}
