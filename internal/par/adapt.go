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
	// Ops is the abstract work accounting of the whole pass
	// (PredictAdaptOps of the phase quantities).
	Ops machine.Ops
	// Retries, Backoff, and Exhausted are the modeled retry traffic a
	// fault plan (Dist.Faults) injected into this pass's notification
	// exchanges: extra message sends, Σ 2^try backoff units (charged at
	// Model.RetryBackoff), and messages whose attempt budget ran out and
	// escalated out of band. All zero without a plan, keeping the
	// fault-free timings byte-identical.
	Retries, Backoff, Exhausted int64
}

// engine builds the pass's frontier-propagation engine, with the cycle's
// modeled exchange-fault model when the plan is on. One model spans the
// whole fault cycle (refine and coarsen continue the same per-pair attempt
// sequence, so their draws are independent); with faults off the engine
// carries none, so the pass stays byte-identical to the fault-free
// baseline.
func (d *Dist) engine() propagate.Engine {
	if !d.Faults.Enabled() {
		d.adaptX = nil
	} else if d.adaptX == nil || d.adaptXCycle != d.FaultCycle {
		d.adaptX = d.Faults.Exchange(fault.StageAdapt, d.FaultCycle, d.Retry.Normalize().MsgAttempts)
		d.adaptXCycle = d.FaultCycle
	}
	return propagate.Engine{Faults: d.adaptX, Scratch: &d.prop}
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

// PredictAdaptOps returns the op accounting one parallel adaption pass
// reports for the given phase quantities: the target/shared-mark scans
// over nEdges edges, the two slab-sized element scans (seed or snapshot,
// plus the execution charge over nElems), the kernel's element
// mutations, the SPL-intersection classification over the classified new
// edges, and the propagation engine's result — which also carries any
// pass-specific extras the caller charged into prop.Ops (classification
// pair bookkeeping, coarsening's created-tail scan). The slab scans are
// the paper's: each rank scans its local objects. The host refinement
// walks only the touched elements (adapt.Adaptor.Touched) and no longer
// performs the element scans it is charged for, by design; the charge is
// the machine's, not the host's. So is the classification charge, one
// SPL-intersection probe per new edge: the host derives each endpoint's
// SPL once and intersects only the edges whose two endpoints are shared.
func PredictAdaptOps(nEdges, nElems, mutations, classified int64, prop propagate.Result) machine.Ops {
	o := prop.Ops
	// The target mark scan streams the edge slab (compute-bound); the
	// bisection / shared-mark scan probes SPLs over the same slab
	// (memory-bound pointer chasing).
	o.AddComp(nEdges)
	o.AddMem(nEdges)
	// Seed/snapshot plus execution-charge pattern scans over the element
	// slab (compute-bound).
	o.AddComp(2 * nElems)
	// Kernel mutations: element creation/removal (memory-bound
	// data-structure updates).
	o.AddMem(mutations)
	// Classification: SPL-intersection probe over the new-edge slab
	// (memory-bound).
	o.AddMem(classified)
	return o
}

// ParallelRefine executes one refinement pass of the distributed 3D_TAG
// algorithm: edge marking, superstep frontier propagation through the
// propagate engine, independent subdivision of local elements, and the
// shared-edge classification round. The engine's run on the P ranks is
// the first round's only marking closure: the serial kernel subdivides
// the marks it closed (adapt.Adaptor.Subdivide), closing only the carry
// rounds after it itself, uncharged. The per-rank work and message
// pattern are replayed against the ownership map and charged to the
// machine model. The seed and the children count walk the adaptor's
// touched set.
func (d *Dist) ParallelRefine(a *adapt.Adaptor, mdl machine.Model) (adapt.RefineStats, AdaptTimings) {
	var tm AdaptTimings
	m := d.M
	clk := machine.NewClock(d.P)
	prop := d.engine()
	xm := prop.Faults
	trace := snapshotFaults(xm)

	// --- Target phase: error indicator over local edges. ---
	d.fillOwn(0)
	localEdges, _ := d.edgeCensus()
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(localEdges[r])*mdl.MarkEdge)
	}
	clk.Barrier()
	tm.Target = clk.Elapsed()

	nEdges0 := m.EdgeSlots()
	nElems0 := m.ElemSlots()

	// --- Propagation phase: superstep frontier fixpoint. ---
	w := adaptWorld{a.World(), d}
	res := prop.Run(w, w.Seed(d.prop.Seed()), clk, mdl)
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
	bisect := make([]int64, d.P)
	var buf []int32
	for ei, mk := range a.MarksSnapshot() {
		if mk != adapt.MarkRefine {
			continue
		}
		ed := m.Edge(mesh.EdgeID(ei))
		if ed.Dead || ed.Bisected() {
			continue
		}
		buf = d.edgeSPL(buf[:0], mesh.EdgeID(ei))
		for _, r := range buf {
			bisect[r]++
		}
	}
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(bisect[r])*mdl.BisectEdge)
	}
	// Subdivision work goes to the element's owner, one unit per child.
	children := make([]int64, d.P)
	for _, el := range a.Touched() {
		if p := a.PatternOf(&m.Elems[el]); p != 0 {
			children[d.own[el]] += int64(p.Kind().Children())
		}
	}
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(children[r])*mdl.SubdivideChild)
	}
	edgesBefore := m.EdgeSlots()

	st := a.Subdivide(int(res.Visits))
	d.fillOwn(nElems0)

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

	res.Ops.AddComp(int64(len(pairs)))
	tm.Ops = PredictAdaptOps(int64(nEdges0), int64(nElems0), int64(st.NewElems),
		int64(m.EdgeSlots()-edgesBefore), res)
	trace.record(xm, &tm)
	return st, tm
}

// classifyPairs runs the shared-edge classification scan over the edges
// created at or after edgesBefore: every new non-half edge whose endpoint
// SPLs intersect in more than one rank contributes a two-word query (edge
// id + verdict) per ordered rank pair. AggregatePairs puts the raw
// contributions in canonical charge order.
//
// A midpoint vertex is an endpoint of a dozen new edges, and nearly every
// vertex lies inside one rank, so each endpoint's SPL is derived once: a
// vertex scan writes the list of every endpoint it finds shared into one
// cache, and the edge scan intersects the cached lists of the edges whose
// two endpoints are both shared — only those can intersect in more than
// one rank.
func (d *Dist) classifyPairs(edgesBefore int) []propagate.PairWords {
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
	var out []propagate.PairWords
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
		out = propagate.PairsFromSPL(out, inter, 2) // edge id + verdict, in words
	}
	return out
}

// ParallelCoarsen executes one coarsening pass with per-rank attribution:
// marking over local edges, one shared-mark consistency exchange through
// the propagation backend, sibling-group removal charged to the parent's
// owner, and the conformity re-refinement charged to the new children's
// owners. The pass ends with the paper's compaction
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

	d.fillOwn(0)
	localEdges, _ := d.edgeCensus()
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(localEdges[r])*mdl.MarkEdge)
	}
	clk.Barrier()
	tm.Target = clk.Elapsed()

	nEdges0 := m.EdgeSlots()
	nElems0 := m.ElemSlots()

	// Shared-mark consistency round: coarsen marks on shared edges are
	// exchanged once (symmetric marking makes further rounds unneeded).
	// The sorted aggregation fixes the charge order.
	var raw []propagate.PairWords
	var buf []int32
	for ei, mk := range a.MarksSnapshot() {
		if mk != adapt.MarkCoarsen {
			continue
		}
		ed := m.Edge(mesh.EdgeID(ei))
		if ed.Dead || ed.Bisected() {
			continue
		}
		if buf = d.edgeSPL(buf[:0], mesh.EdgeID(ei)); len(buf) > 1 {
			raw = propagate.PairsFromSPL(raw, buf, 1)
		}
	}
	pairs := propagate.AggregatePairs(raw)
	var res propagate.Result
	res.Rounds = 1
	res.Ops.AddComp(int64(len(pairs)))
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
	for i := range deadBefore {
		deadBefore[i] = m.Elems[i].Dead
	}

	st := a.Coarsen()
	d.fillOwn(nElems0)

	// Removal work: newly dead elements, charged to their tree's owner.
	removed := make([]int64, d.P)
	for i, was := range deadBefore {
		if m.Elems[i].Dead && !was {
			removed[d.own[i]]++
		}
	}
	for r := 0; r < d.P; r++ {
		clk.Add(r, float64(removed[r])*mdl.RemoveElem)
	}
	// Re-refinement work: elements created during the pass. This tail
	// scan is a third element pass ParallelRefine doesn't have, so it is
	// charged into the pass's accounting here (PredictAdaptOps covers only
	// the two slab-sized scans).
	tail := len(m.Elems) - nElems0
	created := make([]int64, d.P)
	for i := nElems0; i < len(m.Elems); i++ {
		if !m.Elems[i].Dead {
			created[d.own[i]]++
		}
	}
	res.Ops.AddComp(int64(tail))
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
		res.Ops.AddMem(scanned)
	}

	var mutations int64
	for r := 0; r < d.P; r++ {
		mutations += removed[r] + created[r]
	}
	tm.Ops = PredictAdaptOps(int64(nEdges0), int64(nElems0), mutations, 0, res)
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
