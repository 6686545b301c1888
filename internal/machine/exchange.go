package machine

import (
	"fmt"
	"slices"
)

// Exchange selects the communication schedule used to move a set of
// point-to-point flows, and with it how many message setups the machine
// charges:
//
//   - ExchangeFlat: one message per (src, dst) flow — the paper's remap
//     semantics. Setups scale with the number of communicating pairs,
//     O(P) per rank at high connectivity.
//   - ExchangeAggregated: each source packs all of its outgoing flows
//     into one combined frame and pays a single setup; destinations
//     drain at the per-word rate. Setups scale O(P) total per round.
//   - ExchangeHierarchical: a two-level per-node schedule — ranks gather
//     combined frames to their node leader, leaders exchange one
//     combined frame per communicating node pair, leaders scatter
//     intra-node. Setups scale O(P/node + nodes·(nodes-1) pairs), with
//     the gather/scatter hops priced at the cheap intra-node rates.
type Exchange int

const (
	ExchangeFlat Exchange = iota
	ExchangeAggregated
	ExchangeHierarchical
)

// ExchangeNames lists the valid -exchange spellings in definition order.
var ExchangeNames = []string{"flat", "aggregated", "hierarchical"}

// String returns the CLI spelling of the exchange.
func (e Exchange) String() string {
	if e < 0 || int(e) >= len(ExchangeNames) {
		return fmt.Sprintf("exchange(%d)", int(e))
	}
	return ExchangeNames[e]
}

// ExchangeByName parses a CLI spelling; the empty string means flat (the
// legacy path).
func ExchangeByName(name string) (Exchange, error) {
	switch name {
	case "", "flat":
		return ExchangeFlat, nil
	case "aggregated":
		return ExchangeAggregated, nil
	case "hierarchical":
		return ExchangeHierarchical, nil
	}
	return 0, fmt.Errorf("machine: unknown exchange %q (have %v)", name, ExchangeNames)
}

// Flow is one directed transfer of Words words from rank Src to rank Dst
// (Src ≠ Dst). Charge functions require flows in canonical src-major
// order — ascending (Src, Dst) — which is the order every producer in
// this repo already emits.
type Flow struct {
	Src, Dst int32
	Words    int64
}

// CombinedDst is the destination sentinel a charge backend passes to a
// RetryFunc for a combined frame, which has no single receiver. It keys
// fault schedules per source without colliding with any real rank.
const CombinedDst = -1

// RetryFunc lets a caller bill modeled retry/fault recovery per message
// at the exact clock position the legacy backends used: after the
// message's send-side charge, before any receiver drain. dst is the real
// destination for per-flow messages and CombinedDst for combined frames;
// words is the words of the message as sent (the combined total for
// combined frames).
type RetryFunc func(src, dst int32, words int64)

// ExchangeCharge reports what a charge call billed to the clock.
type ExchangeCharge struct {
	// Msgs is the number of messages sent; every message pays exactly one
	// setup, so this is also the setup count.
	Msgs int64
	// Words is the logical payload moved — Σ Flow.Words, identical across
	// backends.
	Words int64
	// SetupTime is the summed setup component of the clock charges
	// (inter-node Tsetup or intra-node IntraTsetup per message), reported
	// separately so callers never fold it silently into volume time.
	SetupTime float64
	// IntraWords and InterWords split the wire traffic by link level.
	// Hierarchical forwarding stores words on both a gather/scatter hop
	// and an inter-node hop, so IntraWords+InterWords can exceed Words.
	IntraWords, InterWords int64
}

// CommTime is the topology-aware message cost: the intra-node rates for
// two ranks on the same node, MsgTime otherwise. On a flat topology it is
// exactly MsgTime for every pair, keeping legacy charges bit-identical.
func (m Model) CommTime(src, dst int, words int64) float64 {
	if m.Topo.SameNode(src, dst) {
		return m.Topo.IntraTsetup + float64(words)*m.Topo.IntraTlat
	}
	return m.MsgTime(words)
}

// SetupTime returns the per-message setup of the (src, dst) link.
func (m Model) SetupTime(src, dst int) float64 {
	if m.Topo.SameNode(src, dst) {
		return m.Topo.IntraTsetup
	}
	return m.Tsetup
}

// ChargeFlows bills the clock for moving the flows under the given
// exchange schedule and returns the charge breakdown. Flows must be in
// canonical src-major order; charges are applied in a deterministic
// order, so the clock is byte-identical for identical inputs.
func (m Model) ChargeFlows(clk *Clock, e Exchange, flows []Flow) ExchangeCharge {
	return m.ChargeFlowsRetry(clk, e, flows, nil)
}

// ChargeFlowsRetry is ChargeFlows with a per-message retry hook (see
// RetryFunc); nil behaves like ChargeFlows.
func (m Model) ChargeFlowsRetry(clk *Clock, e Exchange, flows []Flow, retry RetryFunc) ExchangeCharge {
	switch e {
	case ExchangeAggregated:
		return m.chargeAggregated(clk, flows, retry)
	case ExchangeHierarchical:
		return m.chargeHierarchical(clk, flows, retry)
	default:
		return m.chargeFlat(clk, flows, retry)
	}
}

// chargeFlat bills one message per flow to the sender. On a flat topology
// every charge is the legacy mdl.MsgTime(words) expression.
func (m Model) chargeFlat(clk *Clock, flows []Flow, retry RetryFunc) ExchangeCharge {
	var ch ExchangeCharge
	for _, f := range flows {
		src, dst := int(f.Src), int(f.Dst)
		clk.Add(src, m.CommTime(src, dst, f.Words))
		ch.Msgs++
		ch.Words += f.Words
		ch.SetupTime += m.SetupTime(src, dst)
		if m.Topo.SameNode(src, dst) {
			ch.IntraWords += f.Words
		} else {
			ch.InterWords += f.Words
		}
		if retry != nil {
			retry(f.Src, f.Dst, f.Words)
		}
	}
	return ch
}

// chargeAggregated bills one combined message per active source and a
// per-word drain on every destination. Each rank's words are totalled per
// link level as integers and each total is priced once, so on a flat
// topology — where the intra total is exactly zero — the charges are the
// plain MsgTime over the source's combined total and total·Tlat drain. On
// a node topology the setup drops to IntraTsetup when a source's every
// destination shares its node.
func (m Model) chargeAggregated(clk *Clock, flows []Flow, retry RetryFunc) ExchangeCharge {
	p := clk.P()
	var ch ExchangeCharge
	type traffic struct{ inter, intra int64 }
	out := make([]traffic, p)
	in := make([]traffic, p)
	for _, f := range flows {
		ch.Words += f.Words
		if m.Topo.SameNode(int(f.Src), int(f.Dst)) {
			out[f.Src].intra += f.Words
			in[f.Dst].intra += f.Words
			ch.IntraWords += f.Words
		} else {
			out[f.Src].inter += f.Words
			in[f.Dst].inter += f.Words
			ch.InterWords += f.Words
		}
	}
	wordTime := func(t traffic) float64 {
		return float64(t.inter)*m.Tlat + float64(t.intra)*m.Topo.IntraTlat
	}
	for r := 0; r < p; r++ {
		if words := out[r].inter + out[r].intra; words > 0 {
			setup := m.Tsetup
			if out[r].inter == 0 {
				setup = m.Topo.IntraTsetup
			}
			clk.Add(r, setup+wordTime(out[r]))
			ch.Msgs++
			ch.SetupTime += setup
			if retry != nil {
				retry(int32(r), CombinedDst, words)
			}
		}
		if in[r].inter+in[r].intra > 0 {
			clk.Add(r, wordTime(in[r]))
		}
	}
	return ch
}

// chargeHierarchical bills the two-level schedule in three barriered
// phases: members gather combined frames to their node leader at the
// intra rates, leaders exchange one combined frame per communicating
// node pair at the interconnect rates, leaders scatter incoming words to
// their members at the intra rates. Leaders skip the gather/scatter hop
// for their own flows. Every hop message counts in Msgs and its words in
// the matching Intra/InterWords level.
func (m Model) chargeHierarchical(clk *Clock, flows []Flow, retry RetryFunc) ExchangeCharge {
	p := clk.P()
	t := m.Topo
	var ch ExchangeCharge
	outW := make([]int64, p)
	inW := make([]int64, p)
	type nodePair struct {
		a, b int32
		w    int64
	}
	var pairs []nodePair
	for _, f := range flows {
		outW[f.Src] += f.Words
		inW[f.Dst] += f.Words
		ch.Words += f.Words
		na, nb := t.Node(int(f.Src)), t.Node(int(f.Dst))
		if na != nb {
			pairs = append(pairs, nodePair{int32(na), int32(nb), f.Words})
		}
	}
	slices.SortFunc(pairs, func(x, y nodePair) int {
		if x.a != y.a {
			return int(x.a) - int(y.a)
		}
		return int(x.b) - int(y.b)
	})
	k := 0
	for _, np := range pairs {
		if k > 0 && pairs[k-1].a == np.a && pairs[k-1].b == np.b {
			pairs[k-1].w += np.w
		} else {
			pairs[k] = np
			k++
		}
	}
	pairs = pairs[:k]

	// Phase 1: members gather their outgoing words to the node leader.
	for r := 0; r < p; r++ {
		if outW[r] == 0 {
			continue
		}
		ld := t.Leader(t.Node(r))
		if r == ld {
			continue
		}
		clk.Add(r, t.IntraTsetup+float64(outW[r])*t.IntraTlat)
		ch.Msgs++
		ch.SetupTime += t.IntraTsetup
		ch.IntraWords += outW[r]
		if retry != nil {
			retry(int32(r), CombinedDst, outW[r])
		}
		clk.Add(ld, float64(outW[r])*t.IntraTlat)
	}
	clk.Barrier()

	// Phase 2: leaders exchange one combined frame per node pair.
	for _, np := range pairs {
		la, lb := t.Leader(int(np.a)), t.Leader(int(np.b))
		clk.Add(la, m.Tsetup+float64(np.w)*m.Tlat)
		ch.Msgs++
		ch.SetupTime += m.Tsetup
		ch.InterWords += np.w
		if retry != nil {
			retry(int32(la), CombinedDst, np.w)
		}
		clk.Add(lb, float64(np.w)*m.Tlat)
	}
	clk.Barrier()

	// Phase 3: leaders scatter incoming words to their members.
	for r := 0; r < p; r++ {
		if inW[r] == 0 {
			continue
		}
		ld := t.Leader(t.Node(r))
		if r == ld {
			continue
		}
		clk.Add(ld, t.IntraTsetup+float64(inW[r])*t.IntraTlat)
		ch.Msgs++
		ch.SetupTime += t.IntraTsetup
		ch.IntraWords += inW[r]
		if retry != nil {
			retry(int32(ld), CombinedDst, inW[r])
		}
		clk.Add(r, float64(inW[r])*t.IntraTlat)
	}
	return ch
}
