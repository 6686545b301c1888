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

// Scratch is Run's working storage. A caller that runs the engine pass
// after pass keeps one, hands it to every Engine it builds and builds each
// seed in Seed's buffer, so a warm Run allocates nothing. No result
// depends on it. The zero value is ready for use.
type Scratch struct {
	frontier, eb, reach, spl []int32
	visits                   []int64
	props                    []proposal
	pairs                    machine.Pairs
}

// Seed returns the frontier buffer the last Run left, emptied, for the
// caller to append the next seed to.
func (s *Scratch) Seed() []int32 { return s.frontier[:0] }

// Run propagates from the seed frontier (any order, duplicates allowed;
// the engine canonicalizes) until no round commits a mark, charging
// per-round visit work and notification traffic to clk with a barrier
// after every round. It takes ownership of the seed slice, whose backing
// array holds every later frontier and stays in the Scratch. Every phase
// runs in a canonical order, so the result and the clock are the same run
// to run. An empty seed runs no round, charges nothing and allocates
// nothing.
func (eng Engine) Run(w World, seed []int32, clk *machine.Clock, mdl machine.Model) Result {
	var res Result
	if len(seed) == 0 {
		return res
	}
	s := eng.Scratch
	if s == nil {
		s = new(Scratch)
	}
	p := clk.P()

	// Canonicalize the seed: ascending unique element ids.
	slices.Sort(seed)
	frontier := slices.Compact(seed)

	visits := slices.Grow(s.visits[:0], p)[:p]
	props, eb, reach, spl := s.props, s.eb, s.reach, s.spl
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
							s.pairs.Add(src, dst, 1)
						}
					}
				}
			}
			i = j
		}
		res.Ops.AddMem(int64(len(props)))

		// One word per notification, summed per (src, dst) pair.
		pairs := s.pairs.Flows()
		res.Ops.AddComp(int64(len(pairs)))

		// Charge the round and synchronize.
		clk.AddCounts(visits, mdl.PropagateVisit)
		ch := eng.ChargeExchange(clk, mdl, pairs)
		res.Msgs += ch.Msgs
		res.Words += ch.Words
		res.SetupTime += ch.SetupTime
		clk.Barrier()

		slices.Sort(next)
		frontier = slices.Compact(next)
	}
	s.frontier, s.eb, s.reach, s.spl, s.visits, s.props = frontier, eb, reach, spl, visits, props
	return res
}
