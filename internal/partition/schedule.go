package partition

import (
	"plum/internal/dual"
	"plum/internal/machine"
)

// The per-rank schedule of a rebalance. The k parts' ranks run it, as
// ParMETIS's adaptive repartitioner runs on the processors that own the
// parts: the only global state of diffusion is the k-node part graph, so
// each rank scans only its own vertices. The host computes the serial
// rebalance; this file prices it on one machine.Clock per part:
//
//   - the owner scan and each round's part-graph scan cost each part its
//     own vertices (local);
//   - the part weights, and each round's part-graph rows, are allgathered
//     in ⌈log2 k⌉ rounds (allgather), and every rank then solves the flows
//     and sorts the parts by potential redundantly (replicated);
//   - each part peels its outflows on its own rank once its inflows have
//     landed, and each flow a→b lands at b MsgTime of the moved vertices'
//     words after a finished (deliver): the peels follow the flow DAG in
//     descending potential;
//   - a round ends with one flat relabel-notification exchange (relabel)
//     and one allreduce for the stop test (disseminate), and each rank's
//     one op of that test.
//
// The closing FM keeps its serial price: its moves cascade.

// local charges n ops of part a's own work to its rank.
func (d *diffuser) local(a int, n int64) {
	d.own[a] += n
	d.clk.Add(a, float64(n)*d.mdl.CompOp)
}

// replicated charges n ops to every rank, each running them redundantly.
func (d *diffuser) replicated(k int, n int64) {
	d.once += n
	for a := range k {
		d.clk.Add(a, float64(n)*d.mdl.CompOp)
	}
}

// deliver lands the messages of one sender's peels, its flows: each
// receiver waits until MsgTime of the flow's words after the sender
// finished peeling, finish(b) ≥ finish(a) + MsgTime(words).
func (d *diffuser) deliver(flows []machine.Flow) {
	for _, f := range flows {
		d.clk.Wait(int(f.Dst), d.clk.Rank(int(f.Src))+d.mdl.MsgTime(f.Words))
	}
}

// allgather charges the dissemination allgather (Bruck et al.) of the
// blocks in d.words, block a of words[a] words, so every rank ends up
// holding every block.
func (d *diffuser) allgather(k int) {
	pre := d.pre
	pre[0] = 0
	for i := range 2 * k {
		pre[i+1] = pre[i] + d.words[i%k]
	}
	d.disseminate(k, 0)
}

// disseminate charges ⌈log2 k⌉ message rounds: in the round of distance
// s = 1, 2, 4, … < k every rank a sends to rank (a+s) mod k, which waits
// for the message. Each message of an allreduce (fixed > 0) carries fixed
// words; the stop test's reductions, a max and an or, are complete after
// the last round. An allgather's (fixed = 0) carries the blocks its sender holds
// of ranks a, a−1, …, a−c+1 (mod k), c = min(s, k−s), so that every
// rank holds all k blocks after the last round; their words are one
// difference of the prefix sums d.pre, taken over the blocks twice.
func (d *diffuser) disseminate(k int, fixed int64) {
	for s := 1; s < k; s *= 2 {
		c := min(s, k-s)
		for a := range k {
			words := fixed
			if fixed == 0 {
				words = d.pre[a+k+1] - d.pre[a+k+1-c]
			}
			d.clk.Add(a, d.mdl.MsgTime(words))
			d.arrive[(a+s)%k] = d.clk.Rank(a)
		}
		for a := range k {
			d.clk.Wait(a, d.arrive[a])
		}
	}
}

// relabel charges the round's relabel notifications as one flat exchange
// and a barrier: each move's old owner tells every other part that holds
// a neighbour of the vertex its new owner, two words a vertex and part,
// one message a pair of parts (machine.Model.ChargeFlows).
func (d *diffuser) relabel(g *dual.Graph, asg Assignment) {
	last := d.last
	for i := range last {
		last[i] = -1
	}
	for i, mv := range d.moved {
		from, to := mv.b, asg[mv.v]
		for _, u := range g.Nbrs(mv.v) {
			if c := asg[u]; c != from && c != to && last[c] != int32(i) {
				last[c] = int32(i)
				d.pairs.Add(from, c, 2)
			}
		}
	}
	d.mdl.ChargeFlows(&d.clk, machine.ExchangeFlat, d.pairs.Flows())
	d.clk.Barrier()
}
