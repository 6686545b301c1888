package machine

import (
	"cmp"
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
//
// The schedule is a pricing parameter of the remap payload exchange
// (-exchange): the host moves the same records either way. The adaption
// notification exchanges are always flat, the paper's one message per
// communicating rank pair per round (ChargeFlowsRetry).
type Exchange int

const (
	ExchangeFlat Exchange = iota
	ExchangeAggregated
)

// ExchangeNames lists the valid -exchange spellings in definition order.
var ExchangeNames = []string{"flat", "aggregated"}

// String returns the CLI spelling of the exchange.
func (e Exchange) String() string {
	if e < 0 || int(e) >= len(ExchangeNames) {
		return fmt.Sprintf("exchange(%d)", int(e))
	}
	return ExchangeNames[e]
}

// MarshalText spells the exchange by its String name in JSON.
func (e Exchange) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// ExchangeByName parses a CLI spelling; the empty string means flat.
func ExchangeByName(name string) (Exchange, error) {
	switch name {
	case "", "flat":
		return ExchangeFlat, nil
	case "aggregated":
		return ExchangeAggregated, nil
	}
	return 0, fmt.Errorf("machine: unknown exchange %q (have %v)", name, ExchangeNames)
}

// Flow is one directed transfer of Words words from rank Src to rank Dst
// (Src ≠ Dst). Charge functions require flows in canonical src-major
// order — ascending (Src, Dst) — which is the order every producer in
// this repo already emits. The remap's payload and the adaption passes'
// notification batches are both Flows fed to the same charge functions,
// so their communication models cannot drift apart.
//
// A remap's flow list (remap.Flows) counts elements, not words: its Words
// is the number of elements the flow migrates, and ChargeElemFlows prices
// each flow at Model.FlowWords of that count. Every other Flow counts
// words.
type Flow struct {
	Src, Dst int32
	Words    int64
}

// Pairs sums the words (or, for a remap, the elements) of one exchange per
// (src, dst) rank pair as they are counted, so a producer never lists its
// contributions. The similarity matrix sums through it too, its pairs
// (old owner, new partition) and its counts remapping weight. It stores
// only the distinct pairs, each source's chained from its own head, and
// one chain head per rank named as a source: nothing is sized by P². The
// zero value is ready for use, and a warm accumulator allocates nothing.
type Pairs struct {
	head  []int32 // per source rank: its chain's first pair + 1, 0 for none
	flows []Flow  // the distinct pairs, in first-seen order
	next  []int32 // per pair: the source's next pair + 1, 0 at the end
	last  int     // the pair the last Add summed into
	out   []Flow  // the last Flows result
}

// Add adds words to the pair (src, dst). A run of adds to one pair, as
// the similarity matrix's neighbouring vertices make, skips the chain
// walk after the first, and a pair the walk finds moves to its chain's
// head, so the destinations a source is adding to now are the first
// walked.
func (ps *Pairs) Add(src, dst int32, words int64) {
	if k := ps.last; k < len(ps.flows) && ps.flows[k].Src == src && ps.flows[k].Dst == dst {
		ps.flows[k].Words += words
		return
	}
	if n := int(src) + 1 - len(ps.head); n > 0 {
		ps.head = append(ps.head, make([]int32, n)...)
	}
	prev, k := int32(-1), ps.head[src]-1
	for k >= 0 && ps.flows[k].Dst != dst {
		prev, k = k, ps.next[k]-1
	}
	switch {
	case k < 0:
		k = int32(len(ps.flows))
		ps.flows = append(ps.flows, Flow{Src: src, Dst: dst})
		ps.next = append(ps.next, ps.head[src])
		ps.head[src] = k + 1
	case prev >= 0:
		ps.next[prev], ps.next[k], ps.head[src] = ps.next[k], ps.head[src], k+1
	}
	ps.flows[k].Words += words
	ps.last = int(k)
}

// AddSPL adds words from every rank of a shared object's processor list
// spl to every other rank of it: one notification per ordered pair of
// sharers. A list of fewer than two ranks adds nothing.
func (ps *Pairs) AddSPL(spl []int32, words int64) {
	for _, r := range spl {
		for _, o := range spl {
			if r != o {
				ps.Add(r, o, words)
			}
		}
	}
}

// Flows returns the summed pairs in canonical ascending (Src, Dst) order,
// the order the charge functions require, and empties the accumulator. It
// walks the sources in order and sorts only each source's own pairs, so a
// list of many sources costs no comparison sort over all of them. The
// result aliases a buffer the accumulator keeps: it is valid until the
// next Flows.
func (ps *Pairs) Flows() []Flow {
	out := slices.Grow(ps.out[:0], len(ps.flows))
	for src, h := range ps.head {
		lo := len(out)
		for k := h - 1; k >= 0; k = ps.next[k] - 1 {
			out = append(out, ps.flows[k])
		}
		ps.head[src] = 0
		slices.SortFunc(out[lo:], func(a, b Flow) int { return cmp.Compare(a.Dst, b.Dst) })
	}
	ps.out, ps.flows, ps.next = out, ps.flows[:0], ps.next[:0]
	return out
}

// RetryFunc lets a caller bill modeled retry/fault recovery per message
// right behind the message's send-side charge: src and dst are the flow's
// ranks, words its words as sent.
type RetryFunc func(src, dst int32, words int64)

// ExchangeCharge reports what a charge call billed to the clock.
type ExchangeCharge struct {
	// Msgs is the number of messages sent; every message pays exactly one
	// setup, so this is also the setup count.
	Msgs int64
	// Words is the logical payload moved — Σ Flow.Words, identical across
	// schedules.
	Words int64
	// SetupTime is the setup component of the clock charges, Msgs·Tsetup,
	// reported separately so callers never fold it silently into volume
	// time.
	SetupTime float64
}

// ChargeFlows bills the clock for moving the flows under the given
// exchange schedule and returns the charge breakdown. Flows must be in
// canonical src-major order; charges are applied in a deterministic
// order, so the clock is byte-identical for identical inputs.
func (m Model) ChargeFlows(clk *Clock, e Exchange, flows []Flow) ExchangeCharge {
	return m.charge(clk, e, flows, false)
}

// ChargeElemFlows is ChargeFlows for a remap's flow list, whose counts are
// elements (see Flow): each flow moves FlowWords of its count, and the
// returned Words is the words moved.
func (m Model) ChargeElemFlows(clk *Clock, e Exchange, flows []Flow) ExchangeCharge {
	return m.charge(clk, e, flows, true)
}

// ChargeFlowsRetry bills the flat schedule — one message per flow, MsgTime
// of its words, to the sender — with a per-message retry hook (see
// RetryFunc); a nil hook is ChargeFlows under ExchangeFlat.
func (m Model) ChargeFlowsRetry(clk *Clock, flows []Flow, retry RetryFunc) ExchangeCharge {
	return m.chargeFlat(clk, flows, false, retry)
}

// charge bills flows under the schedule e; elems says their counts are
// elements, priced at FlowWords.
func (m Model) charge(clk *Clock, e Exchange, flows []Flow, elems bool) ExchangeCharge {
	if e == ExchangeAggregated {
		return m.chargeAggregated(clk, flows, elems)
	}
	return m.chargeFlat(clk, flows, elems, nil)
}

// words returns the words flow f moves: its count, or FlowWords of it for
// a count of elements.
func (m Model) words(f Flow, elems bool) int64 {
	if elems {
		return m.FlowWords(f.Words)
	}
	return f.Words
}

func (m Model) chargeFlat(clk *Clock, flows []Flow, elems bool, retry RetryFunc) ExchangeCharge {
	var ch ExchangeCharge
	for _, f := range flows {
		w := m.words(f, elems)
		clk.Add(int(f.Src), m.MsgTime(w))
		ch.Msgs++
		ch.Words += w
		if retry != nil {
			retry(f.Src, f.Dst, w)
		}
	}
	ch.SetupTime = float64(ch.Msgs) * m.Tsetup
	return ch
}

// chargeAggregated bills one combined message per active source and a
// per-word drain on every destination. Each rank's words are totalled as
// integers and each total is priced once: MsgTime over the source's
// combined total, total·Tlat of drain.
func (m Model) chargeAggregated(clk *Clock, flows []Flow, elems bool) ExchangeCharge {
	p := clk.P()
	var ch ExchangeCharge
	tot := make([]int64, 2*p)
	out, in := tot[:p], tot[p:]
	for _, f := range flows {
		w := m.words(f, elems)
		ch.Words += w
		out[f.Src] += w
		in[f.Dst] += w
	}
	for r := 0; r < p; r++ {
		if out[r] > 0 {
			clk.Add(r, m.MsgTime(out[r]))
			ch.Msgs++
		}
		if in[r] > 0 {
			clk.Add(r, float64(in[r])*m.Tlat)
		}
	}
	ch.SetupTime = float64(ch.Msgs) * m.Tsetup
	return ch
}
