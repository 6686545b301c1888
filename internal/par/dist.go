// Package par implements the distributed-memory view of the adaptive mesh:
// processor ownership of the dual graph's element trees, shared-object
// bookkeeping (the paper's shared processor lists, SPLs), the parallel
// 3D_TAG execution phases with SP2-class time accounting, data remapping,
// and the finalization gather that reassembles a global mesh.
//
// Substitution note: the mesh itself is a shared ground truth mutated by
// the serial adaption kernel, while the distributed algorithm's work and
// communication pattern are replayed rank-by-rank against the ownership
// map and charged to the machine model. This mirrors the paper's own
// methodology for the remapping phase ("all appropriate mesh objects are
// sent to their new host processor, accurately modeling the communication
// phase" with the rebuild incomplete): the remap and finalization
// exchanges are modeled from their canonical flow lists, and injected
// faults are drawn through the same fault.ExchangeModel as the adaption
// notifications.
package par

import (
	"fmt"
	"slices"

	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/obs"
	"plum/internal/partition"
)

// Dist is a distributed view: a mesh plus processor ownership of each
// element tree (dual-graph vertex).
type Dist struct {
	M *mesh.Mesh
	P int

	// Exchange selects the communication schedule of the remap payload
	// exchange — flat (the zero value) or aggregated (see
	// machine.Exchange). It is a pricing parameter of the machine model:
	// both schedules carry each flow's records as one message, so owners,
	// fault fates and Moved/Sets/WordsMoved/PeakWords are identical across
	// schedules; only the communication charges differ. The adaption notifications are always flat (see
	// internal/propagate).
	Exchange machine.Exchange

	// Faults is the deterministic fault-injection plan of the remap
	// payload exchange and the adaption notifications (internal/fault).
	// nil — or a zero-rate plan — draws no fates. When enabled, the remap
	// executor runs transactionally: a window with an undelivered message
	// is re-exchanged up to Retry.WindowRetries times, and exhausted
	// retries return a typed *RemapError with the ownership untouched,
	// since it flips only after the last window is delivered.
	Faults *fault.Plan
	// Retry bounds the recovery effort when Faults is enabled; the zero
	// value normalizes to fault.DefaultRetry.
	Retry fault.Retry
	// FaultCycle scopes the fault keys to the enclosing balance cycle, so
	// each cycle of a run draws an independent fault schedule.
	FaultCycle int

	// Trace records per-rank remap spans and streaming-window events on
	// the modeled timeline (internal/obs). nil disables tracing: an
	// emission on a nil trace does nothing and allocates nothing, and only
	// the per-rank spans, whose arrays cost work to build, check for nil
	// first.
	Trace *obs.Trace

	// dead marks ranks lost to crash recovery; nil until the first crash.
	// A dead rank owns no elements, sends no messages, and is excluded
	// from every subsequent balance target. Ownership maps never name a
	// dead rank once recovery completes.
	dead []bool

	// adaptX is the cycle's modeled fault model for the adaption
	// notification exchanges, rebuilt when FaultCycle advances: refine and
	// coarsen within one cycle continue the same per-pair attempt
	// sequence, so their fault draws stay independent (see engine).
	adaptX      *fault.ExchangeModel
	adaptXCycle int

	// owner[r] is the processor owning root element r's tree, which is
	// dual vertex r: the mesh keeps its roots at ids [0, NumRoots), so
	// owner[Elems[el].Root] is element el's owner, with no map between.
	owner []int32
	// own[el] is the rank owning element el, owner[Elems[el].Root]:
	// the dense slab every SPL probe reads. Init and the adaption passes
	// fill it before their first probe and extend it over the tail their
	// kernel appends (fillOwn); the next ownership change or compaction
	// leaves it stale, so nothing outside those scans reads it.
	own []int32

	// vsplAt and vspl are classifyPairs' per-vertex SPL cache, and
	// deadBefore is ParallelCoarsen's per-element liveness snapshot; all
	// are kept across passes, so a pass allocates only when the mesh
	// grows.
	vsplAt     []int32
	vspl       []int32
	deadBefore []bool
}

// NewDist builds the distributed view from a dual-graph partition
// assignment mapped directly to processors (partition i → processor i).
// asg must have one entry per dual vertex.
func NewDist(m *mesh.Mesh, p int, asg partition.Assignment) *Dist {
	if len(asg) != m.NumRoots() {
		panic(fmt.Sprintf("par: %d roots vs %d owners", m.NumRoots(), len(asg)))
	}
	d := &Dist{M: m, P: p, owner: make([]int32, len(asg))}
	copy(d.owner, asg)
	for _, o := range d.owner {
		if o < 0 || int(o) >= p {
			panic(fmt.Sprintf("par: owner %d out of range", o))
		}
	}
	return d
}

// Owners returns a copy of the per-dual-vertex owner array.
func (d *Dist) Owners() []int32 { return append([]int32(nil), d.owner...) }

// MarkDead records ranks lost to crash recovery. Dead ranks stay dead
// for the rest of the run; marking an already-dead rank is a no-op.
func (d *Dist) MarkDead(ranks []int) {
	if len(ranks) == 0 {
		return
	}
	if d.dead == nil {
		d.dead = make([]bool, d.P)
	}
	for _, r := range ranks {
		if r >= 0 && r < d.P {
			d.dead[r] = true
		}
	}
}

// Alive returns the surviving ranks, sorted ascending. With no deaths it
// is simply [0, P).
func (d *Dist) Alive() []int32 {
	out := make([]int32, 0, d.P)
	for r := 0; r < d.P; r++ {
		if d.dead == nil || !d.dead[r] {
			out = append(out, int32(r))
		}
	}
	return out
}

// AliveCount returns the number of surviving ranks.
func (d *Dist) AliveCount() int {
	n := d.P
	for _, dd := range d.dead {
		if dd {
			n--
		}
	}
	return n
}

// SetOwners replaces the ownership map (after a remap decision).
func (d *Dist) SetOwners(o []int32) {
	if len(o) != len(d.owner) {
		panic("par: owner length mismatch")
	}
	copy(d.owner, o)
}

// OwnerOf returns the processor owning element el (the owner of its root's
// tree — all descendants move with the root, per the paper's Wremap
// rationale).
func (d *Dist) OwnerOf(el mesh.ElemID) int32 { return d.owner[d.M.Elems[el].Root] }

// fillOwn refreshes the owner slab over elements [lo, len(Elems)) in one
// streaming scan of the element slab: lo = 0 before a pass's first probe,
// the pre-kernel slab length once the kernel has appended.
func (d *Dist) fillOwn(lo int) {
	elems, owner := d.M.Elems, d.owner
	n := len(elems)
	d.own = slices.Grow(d.own[:lo], n-lo)[:n]
	for i := lo; i < n; i++ {
		d.own[i] = owner[elems[i].Root]
	}
}

// edgeSPL appends the sorted shared-processor list of edge e — the owners
// of the active elements sharing it — to dst. A list longer than one marks
// a shared edge. It reads the owner slab.
func (d *Dist) edgeSPL(dst []int32, e mesh.EdgeID) []int32 {
	lo, own := len(dst), d.own
	for _, el := range d.M.EdgeElems(e) {
		dst = addRank(dst, lo, own[el])
	}
	return dst
}

// vertSPL appends the sorted shared-processor list of vertex v — the
// owners of the active elements incident to v through its edges — to dst.
// It reads the owner slab.
func (d *Dist) vertSPL(dst []int32, v mesh.VertID) []int32 {
	lo, own, m := len(dst), d.own, d.M
	for _, e := range m.VertEdges(v) {
		for _, el := range m.EdgeElems(e) {
			dst = addRank(dst, lo, own[el])
		}
	}
	return dst
}

// addRank inserts rank r into the sorted unique list s[lo:]. A list holds
// a handful of distinct ranks, so insertion beats collecting and sorting;
// most objects lie inside one rank, and r equal to the last entry returns
// after two compares.
func addRank(s []int32, lo int, r int32) []int32 {
	i := len(s)
	for i > lo && s[i-1] > r {
		i--
	}
	if i > lo && s[i-1] == r {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = r
	return s
}

// InitStats summarizes the initialization phase: shared-object counts and
// the extra memory fraction they cost (the paper reports <10% for its
// cases).
type InitStats struct {
	SharedEdges, SharedVerts int
	LocalEdges               []int64 // per rank, counting shared copies
	LocalElems               []int64 // per rank (active elements)
	// SharedFraction is shared objects / total objects.
	SharedFraction float64
}

// Init performs the initialization-phase analysis: distributing the mesh
// according to ownership, identifying shared edges and vertices, and
// sizing the per-rank local subgrids.
func (d *Dist) Init() InitStats {
	d.fillOwn(0)
	var st InitStats
	st.LocalEdges, st.SharedEdges = d.edgeCensus()

	// Vertex scan: the shared-vertex census.
	var buf []int32
	var verts int64
	for vi := range d.M.Verts {
		v := &d.M.Verts[vi]
		if v.Dead || v.NumEdges() == 0 {
			continue
		}
		verts++
		if buf = d.vertSPL(buf[:0], mesh.VertID(vi)); len(buf) > 1 {
			st.SharedVerts++
		}
	}

	// Element scan: per-rank local subgrid sizes.
	st.LocalElems = d.RankLoads()

	total := int64(d.M.NumActiveEdges()) + verts
	if total > 0 {
		st.SharedFraction = float64(st.SharedEdges+st.SharedVerts) / float64(total)
	}
	return st
}

// edgeCensus runs the edge scan of the initialization analysis: the
// number of active edges each rank holds a copy of (an edge shared by k
// ranks counts once on each) and how many edges are shared. It is all the
// adaption passes need of Init to charge their marking phase. The owner
// slab must be filled.
func (d *Dist) edgeCensus() (local []int64, shared int) {
	local = make([]int64, d.P)
	var buf []int32
	for ei := range d.M.Edges {
		ed := &d.M.Edges[ei]
		if ed.Dead || ed.Bisected() || ed.NumElems() == 0 {
			continue
		}
		buf = d.edgeSPL(buf[:0], mesh.EdgeID(ei))
		for _, r := range buf {
			local[r]++
		}
		if len(buf) > 1 {
			shared++
		}
	}
	return local, shared
}

// RankLoads returns the active-element count per processor — the Wcomp
// load the preliminary-evaluation step balances. It resolves owners
// through the roots, so it is right at any time, not only inside a pass.
func (d *Dist) RankLoads() []int64 {
	cnt := make([]int64, d.P)
	for i := range d.M.Elems {
		if d.M.Elems[i].Active() {
			cnt[d.OwnerOf(mesh.ElemID(i))]++
		}
	}
	return cnt
}

// ImbalanceFactor returns the paper's Wmax/Wavg metric over the current
// ownership.
func ImbalanceFactor(loads []int64) float64 {
	var max, sum int64
	for _, x := range loads {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) / (float64(sum) / float64(len(loads)))
}
