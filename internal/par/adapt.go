package par

import (
	"slices"

	"plum/internal/adapt"
	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/propagate"
)

// AdaptTimings reports the modeled SP2 execution time of one parallel
// adaption phase, broken down the way the paper instruments it. The
// message charges accumulate in sorted (src, dst) pair order, never map
// order, so every field is the same run to run.
type AdaptTimings struct {
	// Target is the edge-marking (error indicator) phase: perfectly
	// distributed across local edges.
	Target float64
	// Propagate is the iterative pattern-upgrade phase including its
	// communication rounds.
	Propagate float64
	// Execute is the subdivision/removal phase.
	Execute float64
	// Classify is the post-refinement shared-edge classification
	// communication (the paper's "new edge across a face" case).
	Classify float64
	// Total is the slowest-rank end-to-end time.
	Total float64
	// CommRounds is the number of propagation supersteps.
	CommRounds int
	// Msgs and Words count the propagation + classification traffic, one
	// message per communicating rank pair per round. SetupTime is the
	// summed modeled message-setup slice of those charges, reported
	// separately so the setup/volume split is visible alongside the remap
	// executor's.
	Msgs, Words int64
	SetupTime   float64
	// Visits is the number of frontier element examinations the
	// propagation engine performed; Marked the edges it newly committed.
	Visits, Marked int64
	// Ops is the abstract work accounting of the whole pass: the
	// per-rank slab scans, the kernel's mutations and the exchanges' pair
	// bookkeeping.
	Ops machine.Ops
	// Retries, Backoff, and Exhausted are the modeled retry traffic a
	// fault plan (Dist.Faults) injected into this pass's notification
	// exchanges: extra message sends, Σ 2^try backoff units (charged at
	// Model.RetryBackoff), and messages whose attempt budget ran out and
	// escalated out of band. All zero without a plan, keeping the
	// fault-free timings byte-identical.
	Retries, Backoff, Exhausted int64
}

// adaptWorld is the adaptor's propagation world (adapt.World) on the P
// ranks: each element lives on its owner, and a committed edge notifies
// the ranks of its shared-processor list.
type adaptWorld struct {
	adapt.World
	d *Dist
}

func (w adaptWorld) Owner(el int32) int32 { return w.d.own[el] }

func (w adaptWorld) SPL(e int32, spl []int32) []int32 {
	return w.d.edgeSPL(spl, mesh.EdgeID(e))
}

// adaptPass is the skeleton both adaption passes run on the Dist's clock,
// reset for the pass, the paper's four phases: marking over each rank's
// local edges (beginAdapt), the shared-edge mark exchange, local
// execution and the shared-object update, each closed by phase. The
// refinement (CloseRefine, FinishRefine) and ParallelCoarsen write only
// the middle: their per-rank charges, their exchanges and the kernel call
// between.
//
// Neither pass charges all of its host work. Refine charges its kernel's
// first round only: the carry rounds after it (adapt.Adaptor.Subdivide)
// close, bisect and subdivide off the clock. Coarsen charges its
// conformity re-refinement only as the children it creates: the
// re-refinement's closure visits, notification rounds and bisections stay
// off the clock.
type adaptPass struct {
	mdl machine.Model
	clk *machine.Clock // the Dist's, reset for the pass
	eng propagate.Engine
	tm  AdaptTimings
	// ops is the pass's work beyond the scans end books: the engine's and
	// the exchanges' pair bookkeeping and each pass's own extra scans.
	ops machine.Ops
	// last is the clock at the end of the previous phase.
	last float64
	// nEdges0 and nElems0 are the slab sizes before the kernel runs.
	nEdges0, nElems0 int
	// The engine's fault counters at the start, so end reports this
	// pass's retries only.
	resent, backoff, exhausted int64
}

// beginAdapt opens a pass and runs its marking phase, the error indicator
// over each rank's local edges. The pass's engine carries the cycle's
// modeled exchange-fault model when the plan is on. One model spans the
// whole fault cycle (refine and coarsen continue the same per-pair attempt
// sequence, so their draws are independent); with faults off the engine
// carries none, so the pass stays byte-identical to the fault-free
// baseline.
func (d *Dist) beginAdapt(mdl machine.Model) adaptPass {
	if !d.Faults.Enabled() {
		d.adaptX = nil
	} else if d.adaptX == nil || d.adaptXCycle != d.FaultCycle {
		d.adaptX = d.Faults.Exchange(fault.StageAdapt, d.FaultCycle, d.Retry.Normalize().MsgAttempts)
		d.adaptXCycle = d.FaultCycle
	}
	p := adaptPass{mdl: mdl, clk: &d.adaptClk, eng: propagate.Engine{Faults: d.adaptX, Scratch: &d.prop}}
	p.clk.Reset(d.P)
	if x := d.adaptX; x != nil {
		p.resent, p.backoff, p.exhausted = x.Resent, x.BackoffUnits, x.Exhausted
	}
	d.fillOwn(0)
	localEdges, _ := d.edgeCensus()
	p.clk.AddCounts(localEdges, mdl.MarkEdge)
	p.phase(&p.tm.Target)
	p.nEdges0, p.nElems0 = d.M.EdgeSlots(), d.M.ElemSlots()
	return p
}

// phase closes a phase with a barrier and books its span into dst.
func (p *adaptPass) phase(dst *float64) {
	p.clk.Barrier()
	now := p.clk.Elapsed()
	*dst, p.last = now-p.last, now
}

// exchange charges one notification exchange of the summed per-pair words
// in canonical (src, dst) order (machine.Pairs.Flows), and books its
// traffic and its pair bookkeeping. It does not barrier.
func (p *adaptPass) exchange(pairs []machine.Flow) {
	p.ops.AddComp(int64(len(pairs)))
	ch := p.eng.ChargeExchange(p.clk, p.mdl, pairs)
	p.tm.Msgs += ch.Msgs
	p.tm.Words += ch.Words
	p.tm.SetupTime += ch.SetupTime
}

// end closes the pass: the slowest rank's total, the op accounting and the
// retry traffic the fault model added since beginAdapt. The ops are the
// paper's per-rank scans of the local objects: the target mark scan
// streams the edge slab (compute-bound) and the bisection / shared-mark
// scan probes SPLs over it (memory-bound); the seed or snapshot scan and
// the execution charge's pattern scan each pass over the element slab
// (compute-bound); the kernel's element mutations and one SPL-intersection
// probe per classified new edge are memory-bound. The host walks only the
// touched elements and intersects only the edges whose two endpoints are
// shared; the charge is the machine's, not the host's.
func (p *adaptPass) end(mutations, classified int64) AdaptTimings {
	p.tm.Total = p.clk.Elapsed()
	p.ops.AddComp(int64(p.nEdges0) + 2*int64(p.nElems0))
	p.ops.AddMem(int64(p.nEdges0) + mutations + classified)
	p.tm.Ops = p.ops
	if x := p.eng.Faults; x != nil {
		p.tm.Retries = x.Resent - p.resent
		p.tm.Backoff = x.BackoffUnits - p.backoff
		p.tm.Exhausted = x.Exhausted - p.exhausted
	}
	return p.tm
}

// eachMarkedSPL calls f with the shared-processor list of every live,
// unbisected edge the adaptor's snapshot marks mk; f must not keep it.
func (d *Dist) eachMarkedSPL(a *adapt.Adaptor, mk adapt.Mark, f func(spl []int32)) {
	var buf []int32
	for e, m := range a.MarksSnapshot() {
		if m != mk {
			continue
		}
		if ed := d.M.Edge(mesh.EdgeID(e)); !ed.Dead && !ed.Bisected() {
			buf = d.edgeSPL(buf[:0], mesh.EdgeID(e))
			f(buf)
		}
	}
}

// ParallelRefine executes one refinement pass of the distributed 3D_TAG
// algorithm on the current owners: edge marking, superstep frontier
// propagation through the propagate engine, independent subdivision of
// local elements, and the shared-edge classification round. It is
// CloseRefine followed at once by FinishRefine; core.Cycle runs the two
// halves with the balance pass between them.
func (d *Dist) ParallelRefine(a *adapt.Adaptor, mdl machine.Model) (adapt.RefineStats, AdaptTimings) {
	r := d.CloseRefine(a, mdl)
	return d.FinishRefine(&r)
}

// A Refinement is a refinement pass whose marks are closed and whose
// subdivision waits (CloseRefine, then FinishRefine). In between, the mesh
// is as the pass found it, and the owners may change: a remap moves the
// unrefined trees, marks and all, and the subdivision is charged on the
// owners it finds.
type Refinement struct {
	a *adapt.Adaptor
	p adaptPass
}

// Timings returns the phases the pass has run so far: after CloseRefine,
// the marking (Target) and the closure (Propagate, its rounds, traffic
// and visits).
func (r *Refinement) Timings() AdaptTimings { return r.p.tm }

// CloseRefine opens a refinement pass and runs its first two phases on
// the current owners: the marking over each rank's local edges and the
// engine's superstep closure of the marks on the P ranks, which is the
// first round's only marking closure. The mesh is not changed.
func (d *Dist) CloseRefine(a *adapt.Adaptor, mdl machine.Model) Refinement {
	p := d.beginAdapt(mdl)
	w := adaptWorld{a.World(), d}
	res := p.eng.Run(w, w.Seed(d.prop.Seed()), p.clk, mdl)
	p.tm.CommRounds = max(res.Rounds, 1) // an empty frontier still runs the fixpoint check
	p.tm.Msgs, p.tm.Words, p.tm.SetupTime = res.Msgs, res.Words, res.SetupTime
	p.tm.Visits, p.tm.Marked = res.Visits, res.Marked
	p.ops = res.Ops
	p.phase(&p.tm.Propagate)
	return Refinement{a: a, p: p}
}

// FinishRefine completes a closed pass on the owners it finds: the serial
// kernel subdivides the marks the engine closed (adapt.Adaptor.Subdivide),
// and the new shared edges are classified. Bisection work is charged to
// every rank sharing the edge, subdivision to the element's owner, one
// unit per child; the children count walks the adaptor's touched set.
func (d *Dist) FinishRefine(r *Refinement) (adapt.RefineStats, AdaptTimings) {
	a, p, m := r.a, &r.p, d.M
	mdl := p.mdl
	d.fillOwn(0) // the owners may have changed since CloseRefine
	bisect := d.rankCounts()
	d.eachMarkedSPL(a, adapt.MarkRefine, func(spl []int32) {
		for _, rk := range spl {
			bisect[rk]++
		}
	})
	p.clk.AddCounts(bisect, mdl.BisectEdge)
	children := d.rankCounts()
	for _, el := range a.Touched() {
		if pt := a.PatternOf(el); pt != 0 {
			children[d.own[el]] += int64(pt.Kind().Children())
		}
	}
	p.clk.AddCounts(children, mdl.SubdivideChild)
	edgesBefore := m.EdgeSlots()
	st := a.Subdivide(int(p.tm.Visits))
	d.fillOwn(p.nElems0)
	p.phase(&p.tm.Execute)

	// New edges whose endpoint SPLs intersect need one message to decide
	// shared vs. internal.
	p.exchange(d.classifyPairs(edgesBefore))
	p.phase(&p.tm.Classify)
	return st, p.end(int64(st.NewElems), int64(m.EdgeSlots()-edgesBefore))
}

// classifyPairs runs the shared-edge classification scan over the edges
// created at or after edgesBefore: every new non-half edge whose endpoint
// SPLs intersect in more than one rank contributes a two-word query (edge
// id + verdict) per ordered rank pair. The queries are summed per pair in
// the Dist's accumulator as they are found; the result is its canonical
// pair list, valid until the accumulator's next use.
//
// A midpoint vertex is an endpoint of a dozen new edges, and nearly every
// vertex lies inside one rank, so each endpoint's SPL is derived once: a
// vertex scan writes the list of every endpoint it finds shared into one
// cache, and the edge scan intersects the cached lists of the edges whose
// two endpoints are both shared — only those can intersect in more than
// one rank.
func (d *Dist) classifyPairs(edgesBefore int) []machine.Flow {
	m := d.M
	// at[v] is where vertex v's cached list starts (the cache holds its
	// length there, then its ranks), or one of:
	const (
		unwanted = -1 // no classified edge ends at v, or its SPL names one rank
		wanted   = -2 // a classified edge ends at v, SPL not derived yet
	)
	nv := m.VertSlots()
	d.vsplAt = slices.Grow(d.vsplAt[:0], nv)[:nv]
	at := d.vsplAt
	for v := range at {
		at[v] = unwanted
	}
	for e := mesh.EdgeID(edgesBefore); int(e) < m.EdgeSlots(); e++ {
		// Half-edges inherit their parent's SPL (case 2) and are skipped.
		if ed := m.Edge(e); !ed.Dead && ed.Parent == mesh.InvalidEdge {
			at[ed.V[0]], at[ed.V[1]] = wanted, wanted
		}
	}
	cache := d.vspl[:0]
	for v := range at {
		if at[v] != wanted {
			continue
		}
		o := len(cache)
		cache = d.vertSPL(append(cache, 0), mesh.VertID(v))
		if k := len(cache) - o - 1; k > 1 {
			cache[o], at[v] = int32(k), int32(o)
		} else {
			cache, at[v] = cache[:o], unwanted
		}
	}
	d.vspl = cache
	spl := func(v mesh.VertID) []int32 {
		o := at[v] + 1
		return cache[o : o+cache[o-1]]
	}
	var inter []int32
	for e := mesh.EdgeID(edgesBefore); int(e) < m.EdgeSlots(); e++ {
		ed := m.Edge(e)
		if ed.Dead || ed.Parent != mesh.InvalidEdge || at[ed.V[0]] < 0 || at[ed.V[1]] < 0 {
			continue // half-edge (case 2), or an endpoint inside one rank
		}
		inter = intersectSorted(inter[:0], spl(ed.V[0]), spl(ed.V[1]))
		if len(inter) <= 1 {
			continue // internal edge (cases 1 and 3)
		}
		d.pairs.AddSPL(inter, 2) // edge id + verdict, in words
	}
	return d.pairs.Flows()
}

// ParallelCoarsen executes one coarsening pass with per-rank attribution:
// marking over local edges, one shared-mark consistency exchange
// (symmetric marking makes further rounds unneeded), sibling-group removal
// charged to the parent's owner, and the conformity re-refinement charged
// by the children it creates to their owners (see adaptPass for what it
// leaves off the clock). The pass ends with the paper's compaction
// (adapt.Adaptor.Compact): the slabs it leaves hold no dead object, ids
// past the initial mesh's are renumbered, and the mesh's log carries the
// vertex renumbering to the solver's next SyncAfterAdaption.
func (d *Dist) ParallelCoarsen(a *adapt.Adaptor, mdl machine.Model) (adapt.CoarsenStats, AdaptTimings) {
	p := d.beginAdapt(mdl)
	m := d.M

	d.eachMarkedSPL(a, adapt.MarkCoarsen, func(spl []int32) {
		d.pairs.AddSPL(spl, 1)
	})
	p.exchange(d.pairs.Flows())
	p.tm.CommRounds = 1
	p.phase(&p.tm.Propagate)

	// Snapshot liveness so the post-kernel scans can attribute removals.
	d.deadBefore = slices.Grow(d.deadBefore[:0], p.nElems0)[:p.nElems0]
	deadBefore := d.deadBefore
	for i := range deadBefore {
		deadBefore[i] = m.Elems[i].Dead
	}
	st := a.Coarsen()
	d.fillOwn(p.nElems0)

	// Removal work: newly dead elements, charged to their tree's owner.
	var mutations int64
	removed := d.rankCounts()
	for i, was := range deadBefore {
		if m.Elems[i].Dead && !was {
			removed[d.own[i]]++
			mutations++
		}
	}
	p.clk.AddCounts(removed, mdl.RemoveElem)
	// Re-refinement work: elements created during the pass. This tail
	// scan is a third element pass ParallelRefine doesn't have.
	created := d.rankCounts()
	for i := p.nElems0; i < len(m.Elems); i++ {
		if !m.Elems[i].Dead {
			created[d.own[i]]++
			mutations++
		}
	}
	p.ops.AddComp(int64(len(m.Elems) - p.nElems0))
	p.clk.AddCounts(created, mdl.SubdivideChild)
	p.phase(&p.tm.Execute)

	// Compaction: the renumbering the paper folds into removal. It is
	// booked the way the scans above are, as one more pass over the element
	// slab, serial and memory-bound (the kernel's walks of the other slabs
	// ride along, as its removal and cleanup sweeps do); the clock has paid
	// for it already, per removed element, in Model.RemoveElem.
	scanned := int64(len(m.Elems))
	if cm := a.Compact(); cm.Elem != nil {
		p.ops.AddMem(scanned)
	}
	return st, p.end(mutations, 0)
}

// intersectSorted intersects two sorted unique slices into dst.
func intersectSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst
}
