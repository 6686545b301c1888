package par

import (
	"slices"

	"plum/internal/adapt"
	"plum/internal/chunk"
	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/propagate"
)

// AdaptTimings reports the modeled SP2 execution time of one parallel
// adaption phase, broken down the way the paper instruments it. Every
// field except Ops.Crit/MemCrit is byte-identical at every worker count:
// the scans merge integer partials in chunk order and the message charges
// accumulate in sorted (src, dst) pair order, never map order.
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
	// Msgs and Words count the propagation + classification traffic
	// under the propagation exchange schedule (Dist.Prop). SetupTime is the
	// summed modeled message-setup slice of those charges, reported
	// separately so the setup/volume split is visible alongside the remap
	// executor's.
	Msgs, Words int64
	SetupTime   float64
	// Visits is the number of frontier element examinations the
	// propagation engine performed; Marked the edges it newly committed.
	Visits, Marked int64
	// Ops is the abstract work accounting of the whole pass
	// (PredictAdaptOps of the phase quantities): Total and MemTotal are
	// worker-invariant, Crit/MemCrit reflect the effective worker count
	// actually used (Crit == Total on the serial fallbacks).
	Ops machine.Ops
	// Retries, Backoff, and Exhausted are the modeled retry traffic a
	// fault plan (Dist.Faults) injected into this pass's notification
	// exchanges: extra message sends, Σ 2^try backoff units (charged at
	// Model.RetryBackoff), and messages whose attempt budget ran out and
	// escalated out of band. All zero without a plan, keeping the
	// fault-free timings byte-identical.
	Retries, Backoff, Exhausted int64
}

// engine builds the pass's frontier-propagation engine: the Prop schedule
// at the Dist's worker knob, with the cycle's modeled exchange-fault model
// when the plan is on. One model spans the whole fault cycle (refine and
// coarsen continue the same per-pair attempt sequence, so their draws are
// independent); with faults off the engine carries none, so the pass stays
// byte-identical to the fault-free baseline.
func (d *Dist) engine() propagate.Engine {
	if !d.Faults.Enabled() {
		d.adaptX = nil
	} else if d.adaptX == nil || d.adaptXCycle != d.FaultCycle {
		d.adaptX = d.Faults.Exchange(fault.StageAdapt, d.FaultCycle, d.Retry.Normalize().MsgAttempts)
		d.adaptXCycle = d.FaultCycle
	}
	return propagate.Engine{Exchange: d.Prop, Workers: d.Workers, Faults: d.adaptX}
}

// faultTrace snapshots an ExchangeModel's cumulative counters so a pass
// can report its own delta in AdaptTimings.
type faultTrace struct{ resent, backoff, exhausted int64 }

func snapshotFaults(x *fault.ExchangeModel) faultTrace {
	if x == nil {
		return faultTrace{}
	}
	return faultTrace{x.Resent, x.BackoffUnits, x.Exhausted}
}

// record writes the counter delta since the snapshot into tm.
func (t faultTrace) record(x *fault.ExchangeModel, tm *AdaptTimings) {
	if x == nil {
		return
	}
	tm.Retries = x.Resent - t.resent
	tm.Backoff = x.BackoffUnits - t.backoff
	tm.Exhausted = x.Exhausted - t.exhausted
}

// patternOf mirrors the adaptor's pattern computation: local edges that
// are marked for refinement or already bisected.
func (d *Dist) patternOf(a *adapt.Adaptor, t *mesh.Element) adapt.Pattern {
	var p adapt.Pattern
	for le, e := range t.E {
		if d.M.Edges[e].Bisected() || a.MarkOf(e) == adapt.MarkRefine {
			p |= adapt.EdgeBit(le)
		}
	}
	return p
}

// adaptWorld adapts the (Dist, Adaptor) pair to the propagation engine's
// World interface: patterns are proposed against the live mark set
// (reads only, safe across worker goroutines), commits go through
// SetMark serially, and reach/SPL probes walk the edge incidence lists.
type adaptWorld struct {
	d *Dist
	a *adapt.Adaptor
}

func (w adaptWorld) Owner(el int32) int32 { return w.d.OwnerOf(mesh.ElemID(el)) }

func (w adaptWorld) Propose(el int32, buf []int32) []int32 {
	t := &w.d.M.Elems[el]
	if !t.Active() {
		return buf
	}
	p := w.d.patternOf(w.a, t)
	add := p.Upgrade() &^ p
	if add == 0 {
		return buf
	}
	for le := 0; le < 6; le++ {
		if add.Has(le) {
			buf = append(buf, int32(t.E[le]))
		}
	}
	return buf
}

func (w adaptWorld) Commit(e int32) { w.a.SetMark(mesh.EdgeID(e), adapt.MarkRefine) }

func (w adaptWorld) Reach(e int32, elems []int32) []int32 {
	for _, nb := range w.d.M.Edges[e].Elems {
		if w.d.M.Elems[nb].Active() {
			elems = append(elems, int32(nb))
		}
	}
	return elems
}

func (w adaptWorld) SPL(e int32, spl []int32) []int32 {
	return w.d.EdgeSPL(mesh.EdgeID(e), spl)
}

// seedFrontier returns the initial propagation frontier: every active
// element with a nonzero pattern, in ascending element order (the
// chunked gather preserves the slab order).
func (d *Dist) seedFrontier(a *adapt.Adaptor) []int32 {
	n := len(d.M.Elems)
	return chunk.Gather(n, EffectiveWorkers(n, d.Workers), func(lo, hi int) []int32 {
		var loc []int32
		for i := lo; i < hi; i++ {
			t := &d.M.Elems[i]
			if t.Active() && d.patternOf(a, t) != 0 {
				loc = append(loc, int32(i))
			}
		}
		return loc
	})
}

// perRankCounts runs a chunked scan over [lo, hi), calling visit with a
// per-chunk rank-count accumulator and a reusable SPL scratch buffer —
// identical totals at every worker count (chunk.GatherCounts merges in
// chunk order).
func (d *Dist) perRankCounts(lo, hi int, visit func(i int, cnt []int64, buf *[]int32)) []int64 {
	n := hi - lo
	return chunk.GatherCounts(n, EffectiveWorkers(n, d.Workers), d.P, func(clo, chi int, cnt []int64) {
		var buf []int32
		for i := clo; i < chi; i++ {
			visit(lo+i, cnt, &buf)
		}
	})
}

// PredictAdaptOps returns the op accounting one parallel adaption pass
// reports for the given phase quantities: the chunked target/shared-mark
// scans over nEdges edges, the two chunked slab-sized element scans
// (seed or snapshot, plus the execution charge over nElems), the
// kernel's serial element mutations, the SPL-intersection classification
// over the classified new edges, and the propagation engine's result —
// which also carries any pass-specific extras the caller charged into
// prop.Ops (classification pair bookkeeping, coarsening's created-tail
// scan). The
// slab scans resolve their worker count against par.SerialCutoff (the
// engine's rounds already carry theirs against propagate.SerialCutoff),
// so a serial host or a small mesh reports Crit == Total.
func PredictAdaptOps(nEdges, nElems, mutations, classified int64, prop propagate.Result, workers int) machine.Ops {
	o := prop.Ops
	ewE := EffectiveWorkers(int(nEdges), workers)
	ewN := EffectiveWorkers(int(nElems), workers)
	// The target mark scan streams the edge slab (compute-bound); the
	// bisection / shared-mark scan probes SPLs over the same slab
	// (memory-bound pointer chasing).
	o.AddParallel(nEdges, ewE)
	o.AddParallelMem(nEdges, ewE)
	// Seed/snapshot plus execution-charge pattern scans over the element
	// slab (compute-bound).
	o.AddParallel(2*nElems, ewN)
	// Kernel mutations: serial element creation/removal (memory-bound
	// data-structure updates).
	o.AddSerialMem(mutations)
	// Classification: SPL-intersection probe over the new-edge slab
	// (memory-bound).
	if classified > 0 {
		o.AddParallelMem(classified, EffectiveWorkers(int(classified), workers))
	}
	o.Clamp()
	return o
}

// ParallelRefine executes one refinement pass of the distributed 3D_TAG
// algorithm: edge marking, superstep frontier propagation through the
// propagate engine, independent subdivision of local elements, and the
// shared-edge classification round. The mesh mutation is performed by the
// (verified) serial kernel; the per-rank work and message pattern are
// replayed against the ownership map and charged to the machine model.
// All scans are chunked over Workers goroutines with the same
// determinism contract as ExecuteRemap and Init.
func (d *Dist) ParallelRefine(a *adapt.Adaptor, mdl machine.Model) (adapt.RefineStats, AdaptTimings) {
	var tm AdaptTimings
	m := d.M
	clk := machine.NewClock(d.P)
	prop := d.engine()
	xm := prop.Faults
	trace := snapshotFaults(xm)

	// --- Target phase: error indicator over local edges. ---
	localEdges, _ := d.EdgeCensus()
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(localEdges[r])*mdl.MarkEdge)
	}
	clk.Barrier()
	tm.Target = clk.Elapsed()

	nEdges0 := len(m.Edges)
	nElems0 := len(m.Elems)

	// --- Propagation phase: superstep frontier fixpoint. ---
	res := prop.Run(adaptWorld{d, a}, d.seedFrontier(a), clk, mdl)
	if res.Rounds == 0 {
		res.Rounds = 1 // the fixpoint-check round: one empty superstep
		clk.Barrier()
	}
	tm.CommRounds = res.Rounds
	tm.Msgs, tm.Words = res.Msgs, res.Words
	tm.SetupTime = res.SetupTime
	tm.Visits, tm.Marked = res.Visits, res.Marked
	propEnd := clk.Elapsed()
	tm.Propagate = propEnd - tm.Target

	// --- Execution phase: bisection + subdivision, attributed by owner. ---
	// Bisection work replicates on every rank sharing the edge; the scan
	// counts shares per rank and charges once per rank.
	marks := a.MarksSnapshot()
	bisect := d.perRankCounts(0, len(marks), func(ei int, cnt []int64, buf *[]int32) {
		if marks[ei] != adapt.MarkRefine {
			return
		}
		ed := &m.Edges[ei]
		if ed.Dead || ed.Bisected() {
			return
		}
		spl := d.EdgeSPL(mesh.EdgeID(ei), *buf)
		*buf = spl
		for _, r := range spl {
			cnt[r]++
		}
	})
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(bisect[r])*mdl.BisectEdge)
	}
	// Subdivision work goes to the element's owner, one unit per child.
	children := d.perRankCounts(0, nElems0, func(i int, cnt []int64, _ *[]int32) {
		t := &m.Elems[i]
		if !t.Active() {
			return
		}
		if p := d.patternOf(a, t); p != 0 {
			cnt[d.OwnerOf(mesh.ElemID(i))] += int64(p.Kind().Children())
		}
	})
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(children[r])*mdl.SubdivideChild)
	}
	edgesBefore := len(m.Edges)

	st := a.Refine()

	clk.Barrier()
	execEnd := clk.Elapsed()
	tm.Execute = execEnd - propEnd

	// --- Classification phase: new edges whose endpoint SPLs intersect
	// require one communication to decide shared vs. internal. ---
	pairs := propagate.AggregatePairs(d.classifyPairs(edgesBefore))
	ch := prop.ChargeExchange(clk, mdl, pairs)
	tm.Msgs += ch.Msgs
	tm.Words += ch.Words
	tm.SetupTime += ch.SetupTime
	clk.Barrier()
	tm.Classify = clk.Elapsed() - execEnd
	tm.Total = clk.Elapsed()

	res.Ops.AddSerial(int64(len(pairs)))
	tm.Ops = PredictAdaptOps(int64(nEdges0), int64(nElems0), int64(st.NewElems),
		int64(len(m.Edges)-edgesBefore), res, d.Workers)
	trace.record(xm, &tm)
	return st, tm
}

// classifyPairs runs the chunked shared-edge classification scan over the
// edges created at or after edgesBefore: every new non-half edge whose
// endpoint SPLs intersect in more than one rank contributes a two-word
// query (edge id + verdict) per ordered rank pair. The raw contributions
// merge in chunk order; AggregatePairs puts them in canonical charge
// order.
//
// A midpoint vertex is an endpoint of a dozen new edges, and nearly every
// vertex lies inside one rank, so the scan first settles, once per
// endpoint vertex, whether its SPL names more than one rank; only edges
// with two such endpoints can intersect in more than one and pay for the
// sorted lists.
func (d *Dist) classifyPairs(edgesBefore int) []propagate.PairWords {
	m := d.M
	const (
		wanted = 1 // endpoint of a classified edge, SPL not probed yet
		shared = 2 // SPL names more than one rank
	)
	nv := len(m.Verts)
	d.vertFlag = slices.Grow(d.vertFlag[:0], nv)[:nv]
	flag := d.vertFlag
	clear(flag)
	classified := m.Edges[edgesBefore:]
	for i := range classified {
		// Half-edges inherit their parent's SPL (case 2) and are skipped.
		if ed := &classified[i]; !ed.Dead && ed.Parent == mesh.InvalidEdge {
			flag[ed.V[0]], flag[ed.V[1]] = wanted, wanted
		}
	}
	chunk.For(nv, EffectiveWorkers(nv, d.Workers), func(_, lo, hi int) {
		var buf []int32
		for v := lo; v < hi; v++ {
			if flag[v] != wanted {
				continue
			}
			buf = d.VertSPL(mesh.VertID(v), buf)
			flag[v] = 0
			if len(buf) > 1 {
				flag[v] = shared
			}
		}
	})
	n := len(classified)
	return chunk.Gather(n, EffectiveWorkers(n, d.Workers), func(lo, hi int) []propagate.PairWords {
		var out []propagate.PairWords
		var s0, s1, inter []int32
		for i := lo; i < hi; i++ {
			ed := &classified[i]
			if ed.Dead || ed.Parent != mesh.InvalidEdge ||
				flag[ed.V[0]] != shared || flag[ed.V[1]] != shared {
				continue // half-edge (case 2), or an endpoint inside one rank
			}
			s0 = d.VertSPL(ed.V[0], s0)
			s1 = d.VertSPL(ed.V[1], s1)
			inter = intersectSorted(inter[:0], s0, s1)
			if len(inter) <= 1 {
				continue // internal edge (cases 1 and 3)
			}
			out = propagate.PairsFromSPL(out, inter, 2) // edge id + verdict, in words
		}
		return out
	})
}

// ParallelCoarsen executes one coarsening pass with per-rank attribution:
// marking over local edges, one shared-mark consistency exchange through
// the propagation backend, sibling-group removal charged to the parent's
// owner, and the conformity re-refinement charged to the new children's
// owners. The mark scan and both execution scans are chunked like
// ParallelRefine's. The pass ends with the paper's compaction
// (adapt.Adaptor.Compact): the slabs it leaves hold no dead object, ids
// past the initial mesh's are renumbered, and the mesh's log carries the
// vertex renumbering to the solver's next SyncAfterAdaption.
func (d *Dist) ParallelCoarsen(a *adapt.Adaptor, mdl machine.Model) (adapt.CoarsenStats, AdaptTimings) {
	var tm AdaptTimings
	m := d.M
	clk := machine.NewClock(d.P)
	prop := d.engine()
	xm := prop.Faults
	trace := snapshotFaults(xm)

	localEdges, _ := d.EdgeCensus()
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(localEdges[r])*mdl.MarkEdge)
	}
	clk.Barrier()
	tm.Target = clk.Elapsed()

	nEdges0 := len(m.Edges)
	nElems0 := len(m.Elems)

	// Shared-mark consistency round: coarsen marks on shared edges are
	// exchanged once (symmetric marking makes further rounds unneeded).
	// The chunked scan gathers per-chunk (src, dst) contributions; the
	// sorted aggregation fixes the charge order the old per-round map
	// left to map iteration.
	marks := a.MarksSnapshot()
	nMarks := len(marks)
	raw := chunk.Gather(nMarks, EffectiveWorkers(nMarks, d.Workers), func(lo, hi int) []propagate.PairWords {
		var out []propagate.PairWords
		var buf []int32
		for ei := lo; ei < hi; ei++ {
			if marks[ei] != adapt.MarkCoarsen {
				continue
			}
			ed := &m.Edges[ei]
			if ed.Dead || ed.Bisected() {
				continue
			}
			spl := d.EdgeSPL(mesh.EdgeID(ei), buf)
			buf = spl
			if len(spl) < 2 {
				continue
			}
			out = propagate.PairsFromSPL(out, spl, 1)
		}
		return out
	})
	pairs := propagate.AggregatePairs(raw)
	var res propagate.Result
	res.Rounds = 1
	res.Ops.AddSerial(int64(len(pairs)))
	ch := prop.ChargeExchange(clk, mdl, pairs)
	res.Msgs, res.Words, res.SetupTime = ch.Msgs, ch.Words, ch.SetupTime
	clk.Barrier()
	tm.CommRounds = res.Rounds
	tm.Msgs, tm.Words = res.Msgs, res.Words
	tm.SetupTime = res.SetupTime
	propEnd := clk.Elapsed()
	tm.Propagate = propEnd - tm.Target

	// Snapshot liveness so the post-kernel scans can attribute removals.
	d.deadBefore = slices.Grow(d.deadBefore[:0], nElems0)[:nElems0]
	deadBefore := d.deadBefore
	chunk.For(nElems0, EffectiveWorkers(nElems0, d.Workers), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			deadBefore[i] = m.Elems[i].Dead
		}
	})

	st := a.Coarsen()

	// Removal work: newly dead elements, charged to their tree's owner.
	removed := d.perRankCounts(0, nElems0, func(i int, cnt []int64, _ *[]int32) {
		if m.Elems[i].Dead && !deadBefore[i] {
			cnt[d.OwnerOf(mesh.ElemID(i))]++
		}
	})
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(removed[r])*mdl.RemoveElem)
	}
	// Re-refinement work: elements created during the pass. This tail
	// scan is a third element pass ParallelRefine doesn't have, so it is
	// charged into the pass's accounting here, at the tail's own
	// effective worker count (PredictAdaptOps covers only the two
	// slab-sized scans).
	tail := len(m.Elems) - nElems0
	created := d.perRankCounts(nElems0, len(m.Elems), func(i int, cnt []int64, _ *[]int32) {
		if !m.Elems[i].Dead {
			cnt[d.OwnerOf(mesh.ElemID(i))]++
		}
	})
	res.Ops.AddParallel(int64(tail), EffectiveWorkers(tail, d.Workers))
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(created[r])*mdl.SubdivideChild)
	}
	clk.Barrier()
	tm.Execute = clk.Elapsed() - propEnd
	tm.Total = clk.Elapsed()

	// Compaction: the renumbering the paper folds into removal. It is
	// booked the way the scans above are, as one more pass over the element
	// slab, serial and memory-bound (the kernel's walks of the other slabs
	// ride along, as its removal and cleanup sweeps do); the clock has paid
	// for it already, per removed element, in Model.RemoveElem.
	scanned := int64(len(m.Elems))
	if cm := a.Compact(); cm.Elem != nil {
		res.Ops.AddSerialMem(scanned)
	}

	var mutations int64
	for r := 0; r < d.P; r++ {
		mutations += removed[r] + created[r]
	}
	tm.Ops = PredictAdaptOps(int64(nEdges0), int64(nElems0), mutations, 0, res, d.Workers)
	trace.record(xm, &tm)
	return st, tm
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
