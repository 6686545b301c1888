package propagate

import (
	"slices"

	"plum/internal/chunk"
	"plum/internal/machine"
)

// proposal is one (edge, proposing rank) pair gathered by the frontier
// scan. Sorting by (edge, src) puts the commits in canonical ascending
// edge order with each edge's proposing ranks grouped and sorted.
type proposal struct {
	edge, src int32
}

// notif is one shared-edge notification: src tells dst that edge was
// newly marked this round. The round's outbox is the slice of these
// sorted by (src, dst, edge) — a flat CSR layout whose runs are the
// per-pair message batches.
type notif struct {
	src, dst, edge int32
}

// Run propagates from the initial frontier (any order, duplicates
// allowed; the engine canonicalizes) until no round commits a mark,
// charging per-round visit work and notification traffic to clk with a
// barrier after every round. It takes ownership of the frontier slice.
// Every phase either runs serially in a canonical order or chunks with
// per-chunk partials merged in chunk order, so the result and the clock
// are identical at every worker count.
func (eng Engine) Run(w World, frontier []int32, clk *machine.Clock, mdl machine.Model) Result {
	p := clk.P()
	var res Result

	// Canonicalize the seed: ascending unique element ids.
	slices.Sort(frontier)
	frontier = slices.Compact(frontier)

	var outbox []notif
	var raw []PairWords
	for len(frontier) > 0 {
		res.Rounds++
		n := len(frontier)
		ew := EffectiveWorkers(n, eng.Workers)
		nc := chunk.Count(n, ew)

		// Proposal scan: per-worker frontier buckets. Chunks are
		// contiguous ranges of the sorted frontier, so concatenating the
		// buckets in chunk order reproduces canonical element order.
		visitParts := make([][]int64, nc)
		propParts := make([][]proposal, nc)
		chunk.For(n, ew, func(c, lo, hi int) {
			vis := make([]int64, p)
			var props []proposal
			var eb []int32
			for i := lo; i < hi; i++ {
				el := frontier[i]
				src := w.Owner(el)
				vis[src]++
				eb = w.Propose(el, eb[:0])
				for _, e := range eb {
					props = append(props, proposal{e, src})
				}
			}
			visitParts[c] = vis
			propParts[c] = props
		})
		visits := make([]int64, p)
		var props []proposal
		for c := 0; c < nc; c++ {
			for r, v := range visitParts[c] {
				visits[r] += v
			}
			props = append(props, propParts[c]...)
		}
		res.Visits += int64(n)
		res.Ops.AddMem(int64(n))

		// Commit phase: serial, ascending (edge, src), duplicates merged.
		// The frontier slice is fully consumed, so its backing array is
		// reused for the next round's candidates.
		slices.SortFunc(props, func(a, b proposal) int {
			if a.edge != b.edge {
				return int(a.edge) - int(b.edge)
			}
			return int(a.src) - int(b.src)
		})
		props = slices.Compact(props)
		next := frontier[:0]
		outbox = outbox[:0]
		var reach, spl []int32
		for i := 0; i < len(props); {
			e := props[i].edge
			j := i
			for j < len(props) && props[j].edge == e {
				j++
			}
			w.Commit(e)
			res.Marked++
			reach = w.Reach(e, reach[:0])
			next = append(next, reach...)
			spl = w.SPL(e, spl[:0])
			if len(spl) > 1 {
				// Each proposing rank notifies the other sharers; it
				// cannot know another rank marked the same edge this
				// round (the paper's symmetric-notification semantics).
				for k := i; k < j; k++ {
					src := props[k].src
					for _, dst := range spl {
						if dst != src {
							outbox = append(outbox, notif{src, dst, e})
						}
					}
				}
			}
			i = j
		}
		res.Ops.AddMem(int64(len(props)))

		// The outbox is already in (src, dst, edge) order: edges ascend
		// outermost, but a stable sort on (src, dst) keeps edge order
		// within each run, yielding the CSR batch layout.
		slices.SortStableFunc(outbox, func(a, b notif) int {
			if a.src != b.src {
				return int(a.src) - int(b.src)
			}
			return int(a.dst) - int(b.dst)
		})
		raw = raw[:0]
		for _, nt := range outbox {
			if k := len(raw); k > 0 && raw[k-1].Src == nt.src && raw[k-1].Dst == nt.dst {
				raw[k-1].Words++
			} else {
				raw = append(raw, PairWords{Src: nt.src, Dst: nt.dst, Words: 1})
			}
		}
		res.Ops.AddComp(int64(len(raw)))

		// Charge the round and synchronize.
		for r := 0; r < p; r++ {
			clk.Add(r, float64(visits[r])*mdl.PropagateVisit)
		}
		ch := eng.ChargeExchange(clk, mdl, raw)
		res.Msgs += ch.Msgs
		res.Words += ch.Words
		res.SetupTime += ch.SetupTime
		clk.Barrier()

		slices.Sort(next)
		frontier = slices.Compact(next)
	}
	return res
}
