package partition

import (
	"slices"

	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/refine"
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

// diffuseTol is the balance the rounds aim at, Wmax ≤ 1.02·avg, inside
// FM's 3% cap, and the closing FM's cap too: Wmax is the solver's
// bottleneck and the cut is not priced, so FM buys no cut with balance.
const diffuseTol = 1.02

// diffusePasses is the FM pass count over the moved vertices and their
// neighbours, the finest-level count of multilevel.
const diffusePasses = 2

// seedRec is one boundary record of the part-graph scan: vertex v has a
// neighbour in part b.
type seedRec struct{ b, v int32 }

// diffuser is the scratch of one rebalance, allocated at the call and
// reused by its rounds: nothing outlives the call but its Assignment.
type diffuser struct {
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
	// tag the current one's, queue the breadth-first queue, and moves the
	// count of moves. cand marks every moved vertex and its neighbours,
	// the closing FM's candidates, and mark is the FM's external-degree
	// scratch once the peels are done.
	mark  []int32
	tag   int32
	queue []int32
	moves int
	cand  []uint64
}

// newDiffuser returns the scratch of one rebalance of g into k parts,
// carrying the part weights w and populations cnt.
func newDiffuser(g *dual.Graph, k int, w []int64, cnt []int32) *diffuser {
	return &diffuser{
		w: w, cnt: cnt,
		recs: make([]seedRec, 0, g.N/2), count: make([]int32, k+1), last: make([]int32, k),
		xadj: make([]int32, k+1), adj: make([]int32, 0, 16*k), seed: make([]int32, 0, 16*k+1),
		x: make([]float64, k), r: make([]float64, k), p: make([]float64, k), q: make([]float64, k),
		comp: make([]int32, k), compN: make([]int32, k), compW: make([]int64, k), order: make([]int32, k),
		mark: make([]int32, g.N), queue: make([]int32, 0, g.N), cand: make([]uint64, refine.Words(g.N)),
	}
}

// rebalance repartitions g into k parts starting from owners, a k-way
// assignment with every part non-empty, instead of from scratch: the
// adaptive repartitioning of ParMETIS (Schloegel, Karypis & Kumar) with
// Hu–Blake diffusion for the flows (Demiralp et al., arXiv:2208.07553).
// An owner set whose parts all fit the FM balance cap (refine.BalanceCap,
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
// nothing, or diffuseRounds rounds ran. Boundary FM (refine.FM) then runs
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
// memory-bound.
func rebalance(g *dual.Graph, k int, owners []int32) (asg Assignment, ops machine.Ops, ok bool) {
	if len(owners) != g.N || k < 1 {
		return nil, ops, false
	}
	w, cnt := make([]int64, k), make([]int32, k)
	var total, heaviest int64
	for v, p := range owners {
		if p < 0 || int(p) >= k {
			ops.AddComp(int64(v + 1))
			return nil, ops, false
		}
		w[p] += g.Wcomp[v]
		cnt[p]++
		total += g.Wcomp[v]
		heaviest = max(heaviest, g.Wcomp[v])
	}
	ops.AddComp(int64(g.N + k))
	if slices.Contains(cnt, 0) {
		return nil, ops, false
	}
	asg = slices.Clone(Assignment(owners))
	if slices.Max(w) <= refine.BalanceCap(w) {
		return asg, ops, true
	}

	d := newDiffuser(g, k, w, cnt)
	target := int64(float64(total) / float64(k) * diffuseTol)
	for round := 0; round < diffuseRounds; round++ {
		ops.AddComp(d.partGraph(g, asg, k) + d.solve(k))
		before := d.moves
		ops.AddComp(d.peelAll(g, asg, k, target) + int64(k))
		if d.moves == before || slices.Max(d.w) <= max(target, heaviest) {
			break
		}
	}
	ops.AddMem(refine.NewFM(k, d.mark).RefineCap(g, asg, diffusePasses, d.cand, max(target, heaviest)))
	return asg, ops, true
}

// partGraph builds the part graph of asg from one scan of g: every vertex
// records each foreign part among its neighbours once, and two stable
// counting sorts (by the foreign part, then by the vertex's own) group
// the records by pair with their vertices ascending. It returns the
// scan's 1 + deg per vertex, 2(T + k) for the sorts of the T records,
// and T + k for the CSR.
func (d *diffuser) partGraph(g *dual.Graph, asg Assignment, k int) int64 {
	last := d.last
	for i := range last {
		last[i] = -1
	}
	recs := d.recs[:0]
	for v := range int32(g.N) {
		a := asg[v]
		for _, u := range g.Nbrs(v) {
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

// peelAll peels every positive flow of the solved potentials, the parts
// taken in descending potential (ties by part number). Every flow runs
// downhill, so a part has received all its inflow before it sends on: a
// flow through a part larger than the part itself passes in one round. It
// returns k·log2 k for the order plus every peel's count.
func (d *diffuser) peelAll(g *dual.Graph, asg Assignment, k int, target int64) int64 {
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
	ops := int64(k) * int64(log2ceil(k))
	for _, a := range order {
		for e := d.xadj[a]; e < d.xadj[a+1]; e++ {
			if b := d.adj[e]; x[a] > x[b] {
				ops += d.peel(g, asg, a, b, x[a]-x[b], d.recs[d.seed[e]:d.seed[e+1]], target)
			}
		}
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
// It returns one op per seed plus 1 + deg per vertex it dequeues.
func (d *diffuser) peel(g *dual.Graph, asg Assignment, a, b int32, flow float64, seeds []seedRec, target int64) int64 {
	d.tag++
	q := d.queue[:0]
	for _, s := range seeds {
		if asg[s.v] == a && d.mark[s.v] != d.tag {
			d.mark[s.v] = d.tag
			q = append(q, s.v)
		}
	}
	ops := int64(len(seeds))
	var moved int64
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
		d.moves++
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
	return ops
}
