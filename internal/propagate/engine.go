package propagate

import (
	"slices"

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
// Every phase runs in a canonical order, so the result and the clock are
// the same run to run.
func (eng Engine) Run(w World, frontier []int32, clk *machine.Clock, mdl machine.Model) Result {
	p := clk.P()
	var res Result

	// Canonicalize the seed: ascending unique element ids.
	slices.Sort(frontier)
	frontier = slices.Compact(frontier)

	visits := make([]int64, p)
	var props []proposal
	var outbox []notif
	var raw []PairWords
	var eb []int32
	for len(frontier) > 0 {
		res.Rounds++
		n := len(frontier)

		// Proposal scan, in ascending element order.
		clear(visits)
		props = props[:0]
		for _, el := range frontier {
			src := w.Owner(el)
			visits[src]++
			eb = w.Propose(el, eb[:0])
			for _, e := range eb {
				props = append(props, proposal{e, src})
			}
		}
		res.Visits += int64(n)
		res.Ops.AddMem(int64(n))

		// Commit phase: ascending (edge, src), duplicates merged.
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
