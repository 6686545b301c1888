package partition

import (
	"slices"

	"plum/internal/dual"
	"plum/internal/machine"
)

// diffuseMinVerts is the fewest dual vertices per part, on average, that
// multilevel rebalances from the owners; coarser parts are partitioned
// from scratch. Flows move whole vertices, and a part of a few dozen
// refined roots cannot carry them: on the rotor under Local_1 (61 k
// roots), rebalancing beat the fresh partition at P ≤ 256 (≥ 238 vertices
// a part) and lost from P = 384 (159) up, 1.26 against 1.03 at cycle 1.
const diffuseMinVerts = 200

// diffuseRounds bounds the diffusion rounds of one rebalance: each round
// rebuilds the part graph, re-solves the flows under the weights the last
// round left, and peels them off again.
const diffuseRounds = 4

// diffuseTol is the balance the rounds aim at, Wmax ≤ 1.02·avg, below
// balanceCap's 1.03·avg, and the closing FM's cap too: Wmax is the
// solver's bottleneck and the cut is not priced, so FM buys no cut with
// balance.
const diffuseTol = 1.02

// diffusePasses is the FM pass count over the moved vertices and their
// neighbours, the finest-level count of multilevel.
const diffusePasses = 2

// seedRec pairs a vertex v with a part b: a boundary record of the
// part-graph scan (v has a neighbour in b), or one of a round's moves (v
// left b).
type seedRec struct{ b, v int32 }

// diffuser is the scratch of multilevel's rebalancing. A Repartitioner
// keeps one and every rebalance reuses it: the slices over the vertices
// are sized once, those over the parts grow when k does. Nothing outlives
// a call but its Assignment, asg, which the next call rewrites.
type diffuser struct {
	asg Assignment
	w   []int64 // part weights, carried through the peels
	cnt []int32 // part populations, carried through the peels

	// The part graph of one round, as CSR over the k parts: row a's
	// entries adj[xadj[a]:xadj[a+1]] are the parts b that a borders, and
	// entry e's seeds, the vertices of a with a neighbour in b, are
	// recs[seed[e]:seed[e+1]]. recs holds the scan's records sorted by
	// (owner, b), v ascending within each pair; tmp is the sort's other
	// buffer, count its buckets, and last[b] the vertex that last
	// recorded b.
	recs, tmp       []seedRec
	count, last     []int32
	xadj, adj, seed []int32

	// The flow solve: the potentials x, CG's residual r, direction p and
	// product q, each part's component comp with its weight and size, and
	// the parts in descending potential, order (the components' BFS queue
	// before that).
	x, r, p, q  []float64
	comp, compN []int32
	compW       []int64
	order       []int32

	// The peels: mark[v] is the number of the last peel that queued v,
	// tag the current one's, queue the breadth-first queue, moves the
	// count of moves and moved this round's, each as the vertex and the
	// part it left. cand marks every moved vertex and its neighbours, the
	// closing FM's candidates, and mark is that FM's external-degree
	// scratch once the peels are done; fm is the FM, for fmK parts.
	mark  []int32
	tag   int32
	queue []int32
	moves int
	moved []seedRec
	cand  []uint64
	fm    *fm
	fmK   int

	// The per-rank schedule (schedule.go): clk holds one clock per part,
	// own the ops each part ran on its own rank, once the ops every rank
	// ran redundantly or waited out, scan each part's share of the round's
	// dual-graph scan, words, pre and arrive a collective's block sizes,
	// their prefix sums and its messages' arrivals, flows one part's peel
	// messages, and pairs the relabel notifications.
	mdl    machine.Model
	clk    machine.Clock
	own    []int64
	once   int64
	scan   []int64
	words  []int64
	pre    []int64
	arrive []float64
	flows  []machine.Flow
	pairs  machine.Pairs
}

// fit returns s resliced to n entries, reallocated if it holds fewer.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset sizes the scratch for a rebalance of an n-vertex graph into k
// parts and clears what a call reads before writing: the part weights
// and populations, the peel marks and the FM candidates.
func (d *diffuser) reset(n, k int) {
	if len(d.mark) != n {
		d.mark, d.queue, d.cand = make([]int32, n), make([]int32, 0, n), make([]uint64, words(n))
		d.recs, d.fm = make([]seedRec, 0, n/2), nil
	}
	clear(d.mark)
	clear(d.cand)
	d.tag, d.moves = 0, 0
	d.w, d.cnt = fit(d.w, k), fit(d.cnt, k)
	clear(d.w)
	clear(d.cnt)
	d.count, d.xadj, d.last = fit(d.count, k+1), fit(d.xadj, k+1), fit(d.last, k)
	d.x, d.r, d.p, d.q = fit(d.x, k), fit(d.r, k), fit(d.p, k), fit(d.q, k)
	d.comp, d.compN, d.compW, d.order = fit(d.comp, k), fit(d.compN, k), fit(d.compW, k), fit(d.order, k)
	d.own, d.scan, d.words, d.arrive = fit(d.own, k), fit(d.scan, k), fit(d.words, k), fit(d.arrive, k)
	d.pre = fit(d.pre, 2*k+1)
	clear(d.own)
	d.once = 0
	d.clk.Reset(k)
	if d.fm == nil || d.fmK != k {
		d.fm, d.fmK = newFM(k, d.mark), k
	}
}

// rebalance repartitions g into k parts starting from owners, a k-way
// assignment with every part non-empty, instead of from scratch: the
// adaptive repartitioning of ParMETIS (Schloegel, Karypis & Kumar) with
// Hu–Blake diffusion for the flows (Demiralp et al., arXiv:2208.07553).
// An owner set whose parts all fit the FM balance cap (balanceCap,
// 1.03·avg) comes back unchanged. Otherwise each round
//
//  1. scans the dual graph once for the part graph and the boundary seeds
//     of each bordering pair (partGraph);
//  2. solves L·x = w − w̄ on the part graph's Laplacian L, w̄ the mean
//     weight of each connected component, by serial CG (solve), so the
//     flow x_a − x_b from a to b moves every part to its mean;
//  3. peels each positive flow off a's boundary with b, breadth-first into
//     a, the parts taken in descending potential so each receives before
//     it sends on (peelAll);
//
// until Wmax fits diffuseTol·avg or the heaviest vertex, a round moves
// nothing, or diffuseRounds rounds ran. Boundary FM (fm.go) then runs
// only over the moved vertices and their neighbours, capped at the larger
// of diffuseTol·avg and the heaviest vertex, so its overflow pass pushes a
// part the rounds left above that cap into a neighbour with room.
//
// No move raises Wmax: a peel keeps its receiver within diffuseTol·avg or
// lighter than the sender was, and FM keeps every part within its cap or
// lowers it. So the result's Wmax is at most max(the owners' Wmax,
// diffuseTol·avg). ok is false, and asg nil, when owners is not such an
// assignment; the ops then count the scan that found it out. The op count
// charges every scan, CG iteration, peel visit and FM op, the FM's
// memory-bound. asg is d's own, valid until the next rebalance.
//
// secs is the call's modeled seconds on mdl when ok: the k parts' ranks
// run it on the per-rank schedule of schedule.go, and only the closing FM
// is priced serially. The schedule reads the graph, the owners, k and mdl
// only, and prices the same ops: each part's own ops (d.own) plus the
// ops every rank runs (d.once) sum to ops.Total.
func (d *diffuser) rebalance(g *dual.Graph, k int, owners []int32, mdl machine.Model) (asg Assignment, ops machine.Ops, secs float64, ok bool) {
	if len(owners) != g.N || k < 1 {
		return nil, ops, 0, false
	}
	d.reset(g.N, k)
	d.mdl = mdl
	w, cnt := d.w, d.cnt
	var total, heaviest int64
	for v, p := range owners {
		if p < 0 || int(p) >= k {
			ops.AddComp(int64(v + 1))
			return nil, ops, 0, false
		}
		w[p] += g.Wcomp[v]
		cnt[p]++
		total += g.Wcomp[v]
		heaviest = max(heaviest, g.Wcomp[v])
	}
	ops.AddComp(int64(g.N + k))
	if slices.Contains(cnt, 0) {
		return nil, ops, 0, false
	}
	for a := range k {
		d.local(a, int64(cnt[a])+1)
		d.words[a] = 1
	}
	d.allgather(k)
	d.asg = fit(d.asg, g.N)
	asg = d.asg
	copy(asg, owners)
	if slices.Max(w) <= balanceCap(w) {
		return asg, ops, d.clk.Elapsed(), true
	}

	target := int64(float64(total) / float64(k) * diffuseTol)
	for round := 0; round < diffuseRounds; round++ {
		partOps := d.partGraph(g, asg, k)
		for a := range k {
			recs := int64(d.seed[d.xadj[a+1]] - d.seed[d.xadj[a]])
			d.local(a, d.scan[a]+3*recs+3)
			d.words[a] = 2 + int64(d.xadj[a+1]-d.xadj[a])
		}
		d.allgather(k)
		solve := d.solve(k)
		sort := d.sortByPotential(k)
		d.replicated(k, solve+sort)
		before := d.moves
		peels := d.peelAll(g, asg, target)
		d.relabel(g, asg)
		d.disseminate(k, 2) // the stop test's allreduce: Wmax and whether a part moved
		for a := range k {
			d.local(a, 1)
		}
		ops.AddComp(partOps + solve + sort + peels + int64(k))
		if d.moves == before || slices.Max(d.w) <= max(target, heaviest) {
			break
		}
	}
	fmOps := d.fm.refineCap(g, asg, diffusePasses, d.cand, max(target, heaviest))
	ops.AddMem(fmOps)
	d.once += fmOps
	return asg, ops, d.clk.Elapsed() + float64(fmOps)*mdl.MemOp, true
}

// partGraph builds the part graph of asg from one scan of g: every vertex
// records each foreign part among its neighbours once, and two stable
// counting sorts (by the foreign part, then by the vertex's own) group
// the records by pair with their vertices ascending. It returns the
// scan's 1 + deg per vertex, 2(T + k) for the sorts of the T records,
// and T + k for the CSR, and leaves each part's share of the scan, 1 +
// deg for each of its vertices, in d.scan.
func (d *diffuser) partGraph(g *dual.Graph, asg Assignment, k int) int64 {
	last := d.last
	for i := range last {
		last[i] = -1
	}
	clear(d.scan)
	recs := d.recs[:0]
	for v := range int32(g.N) {
		a := asg[v]
		nbrs := g.Nbrs(v)
		d.scan[a] += 1 + int64(len(nbrs))
		for _, u := range nbrs {
			if b := asg[u]; b != a && last[b] != v {
				last[b] = v
				recs = append(recs, seedRec{b, v})
			}
		}
	}
	d.tmp = slices.Grow(d.tmp[:0], len(recs))[:len(recs)]
	d.countSort(recs, d.tmp, func(s seedRec) int32 { return s.b })
	d.countSort(d.tmp, recs, func(s seedRec) int32 { return asg[s.v] })
	d.recs = recs

	xadj, adj, seed := d.xadj, d.adj[:0], d.seed[:0]
	xadj[0] = 0
	for i, a := 0, int32(0); a < int32(k); a++ {
		for ; i < len(recs) && asg[recs[i].v] == a; i++ {
			if len(seed) == int(xadj[a]) || recs[i-1].b != recs[i].b {
				adj = append(adj, recs[i].b)
				seed = append(seed, int32(i))
			}
		}
		xadj[a+1] = int32(len(adj))
	}
	d.adj, d.seed = adj, append(seed, int32(len(recs)))
	t := int64(len(recs))
	return int64(g.N+len(g.Adjncy)) + 2*(t+int64(k)) + t + int64(k)
}

// countSort writes src into dst stably ordered by key, a part.
func (d *diffuser) countSort(src, dst []seedRec, key func(seedRec) int32) {
	pos := d.count
	clear(pos)
	for _, s := range src {
		pos[key(s)+1]++
	}
	for i := 1; i < len(pos); i++ {
		pos[i] += pos[i-1]
	}
	for _, s := range src {
		dst[pos[key(s)]] = s
		pos[key(s)]++
	}
}

// solve computes the potentials x of L·x = w − w̄ on the part graph by
// conjugate gradients, serially and in a fixed order. w̄ is the mean of
// each connected component of the part graph, so the right-hand side is
// orthogonal to L's null space and CG from x = 0 converges; it stops at a
// relative residual of 1e-9 or after 2k iterations. It returns 4k + E for
// the components' BFS and the setup, E the part graph's entries, and
// E + 6k per iteration.
func (d *diffuser) solve(k int) int64 {
	xadj, adj := d.xadj, d.adj
	comp, compW, compN, queue := d.comp, d.compW, d.compN, d.order[:0]
	for i := range comp {
		comp[i] = -1
	}
	nc := int32(0)
	for s := range int32(k) {
		if comp[s] >= 0 {
			continue
		}
		compW[nc], compN[nc] = 0, 0
		comp[s] = nc
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			a := queue[head]
			compW[nc] += d.w[a]
			compN[nc]++
			for _, b := range adj[xadj[a]:xadj[a+1]] {
				if comp[b] < 0 {
					comp[b] = nc
					queue = append(queue, b)
				}
			}
		}
		nc++
	}

	x, r, p, q := d.x, d.r, d.p, d.q
	var rr float64
	for a := range x {
		c := comp[a]
		x[a] = 0
		r[a] = float64(d.w[a]) - float64(compW[c])/float64(compN[c])
		p[a] = r[a]
		rr += r[a] * r[a]
	}
	e := int64(len(adj))
	ops := 4*int64(k) + e
	tol := rr * 1e-18
	for it := 0; it < 2*k && rr > tol; it++ {
		var pq float64
		for a := range q {
			row := adj[xadj[a]:xadj[a+1]]
			s := float64(len(row)) * p[a]
			for _, b := range row {
				s -= p[b]
			}
			q[a] = s
			pq += p[a] * s
		}
		ops += e + 6*int64(k)
		if pq <= 0 {
			break
		}
		alpha := rr / pq
		var rr2 float64
		for a := range x {
			x[a] += alpha * p[a]
			r[a] -= alpha * q[a]
			rr2 += r[a] * r[a]
		}
		beta := rr2 / rr
		rr = rr2
		for a := range p {
			p[a] = r[a] + beta*p[a]
		}
	}
	return ops
}

// sortByPotential orders the parts by descending potential, ties by part
// number, and returns k·log2 k for the sort.
func (d *diffuser) sortByPotential(k int) int64 {
	x, order := d.x, d.order
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		switch {
		case x[a] > x[b]:
			return -1
		case x[a] < x[b]:
			return 1
		}
		return int(a - b)
	})
	return int64(k) * int64(log2ceil(k))
}

// peelAll peels every positive flow of the solved potentials, the parts
// taken in the order sortByPotential left. Every flow runs downhill, so a
// part has received all its inflow before it sends on: a flow through a
// part larger than the part itself passes in one round. A part's peels
// run on its rank, and then one message a flow carries the moved
// vertices to each receiver (deliver). It returns every peel's count.
func (d *diffuser) peelAll(g *dual.Graph, asg Assignment, target int64) int64 {
	x := d.x
	d.moved = d.moved[:0]
	var ops int64
	for _, a := range d.order {
		out := d.flows[:0]
		for e := d.xadj[a]; e < d.xadj[a+1]; e++ {
			if b := d.adj[e]; x[a] > x[b] {
				n, words := d.peel(g, asg, a, b, x[a]-x[b], d.recs[d.seed[e]:d.seed[e+1]], target)
				d.local(int(a), n)
				out = append(out, machine.Flow{Src: a, Dst: b, Words: words})
				ops += n
			}
		}
		d.deliver(out)
		d.flows = out
	}
	return ops
}

// peel moves about flow of part a's weight into part b, breadth-first
// from seeds, a's vertices that bordered b at the round's scan and are
// still in a; the search grows only from the vertices that move. A vertex
// moves if a keeps another vertex and
//
//   - the weight moved stays within half the vertex of the flow, or the
//     vertex is the peel's first and a is above target: one vertex
//     heavier than twice the flow may still leave an overloaded part;
//   - b stays within target, or b ends lighter than a was, so no move
//     raises Wmax.
//
// It returns one op per seed plus 1 + deg per vertex it dequeues, and the
// words of the message that carries the moved vertices to b: 2 + deg
// each, the vertex, its weight and its adjacency. Each move is recorded
// in d.moved.
func (d *diffuser) peel(g *dual.Graph, asg Assignment, a, b int32, flow float64, seeds []seedRec, target int64) (int64, int64) {
	d.tag++
	q := d.queue[:0]
	for _, s := range seeds {
		if asg[s.v] == a && d.mark[s.v] != d.tag {
			d.mark[s.v] = d.tag
			q = append(q, s.v)
		}
	}
	ops := int64(len(seeds))
	var moved, words int64
	for head := 0; head < len(q) && float64(moved) < flow; head++ {
		v := q[head]
		nbrs := g.Nbrs(v)
		ops += 1 + int64(len(nbrs))
		wv := g.Wcomp[v]
		down := d.w[b]+wv < d.w[a]
		shed := d.w[a] > target && down
		if d.cnt[a] <= 1 || float64(2*moved+wv) > 2*flow && (moved > 0 || !shed) || d.w[b]+wv > target && !down {
			continue
		}
		asg[v] = b
		d.w[a] -= wv
		d.w[b] += wv
		d.cnt[a]--
		d.cnt[b]++
		moved += wv
		words += 2 + int64(len(nbrs))
		d.moves++
		d.moved = append(d.moved, seedRec{a, v})
		d.cand[v>>6] |= 1 << (v & 63)
		for _, u := range nbrs {
			d.cand[u>>6] |= 1 << (u & 63)
			if asg[u] == a && d.mark[u] != d.tag {
				d.mark[u] = d.tag
				q = append(q, u)
			}
		}
	}
	d.queue = q
	return ops, words
}
