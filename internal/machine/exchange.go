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
type Flow struct {
	Src, Dst int32
	Words    int64
}

// AggregatePairs sorts raw flows by (Src, Dst) and merges duplicates,
// summing their words, into the canonical list the charge functions
// consume. The input is clobbered; the result aliases it.
func AggregatePairs(raw []Flow) []Flow {
	if len(raw) == 0 {
		return nil
	}
	slices.SortFunc(raw, func(a, b Flow) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	out := raw[:1]
	for _, f := range raw[1:] {
		if last := &out[len(out)-1]; last.Src == f.Src && last.Dst == f.Dst {
			last.Words += f.Words
		} else {
			out = append(out, f)
		}
	}
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
	if e == ExchangeAggregated {
		return m.chargeAggregated(clk, flows)
	}
	return m.ChargeFlowsRetry(clk, flows, nil)
}

// ChargeFlowsRetry bills the flat schedule — one message per flow, MsgTime
// of its words, to the sender — with a per-message retry hook (see
// RetryFunc); a nil hook is ChargeFlows under ExchangeFlat.
func (m Model) ChargeFlowsRetry(clk *Clock, flows []Flow, retry RetryFunc) ExchangeCharge {
	var ch ExchangeCharge
	for _, f := range flows {
		clk.Add(int(f.Src), m.MsgTime(f.Words))
		ch.Msgs++
		ch.Words += f.Words
		if retry != nil {
			retry(f.Src, f.Dst, f.Words)
		}
	}
	ch.SetupTime = float64(ch.Msgs) * m.Tsetup
	return ch
}

// chargeAggregated bills one combined message per active source and a
// per-word drain on every destination. Each rank's words are totalled as
// integers and each total is priced once: MsgTime over the source's
// combined total, total·Tlat of drain.
func (m Model) chargeAggregated(clk *Clock, flows []Flow) ExchangeCharge {
	p := clk.P()
	var ch ExchangeCharge
	out := make([]int64, p)
	in := make([]int64, p)
	for _, f := range flows {
		ch.Words += f.Words
		out[f.Src] += f.Words
		in[f.Dst] += f.Words
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
