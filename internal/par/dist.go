// Package par implements the distributed-memory view of the adaptive mesh:
// processor ownership of the dual graph's element trees, shared-object
// bookkeeping (the paper's shared processor lists, SPLs), the parallel
// 3D_TAG execution phases with SP2-class time accounting, data remapping
// with real message traffic over internal/comm, and the finalization
// gather that reassembles a global mesh.
//
// Substitution note (cf. DESIGN.md): the mesh itself is a shared ground
// truth mutated by the serial adaption kernel, while the distributed
// algorithm's work and communication pattern are replayed rank-by-rank
// against the ownership map and charged to the machine model. This mirrors
// the paper's own methodology for the remapping phase ("all appropriate
// mesh objects are sent to their new host processor, accurately modeling
// the communication phase" with the rebuild incomplete); we additionally
// move real payloads between goroutine ranks and verify conservation.
package par

import (
	"fmt"
	"slices"
	"time"

	"plum/internal/chunk"
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

	// Workers bounds the worker-goroutine count of the chunked O(mesh)
	// scans — the remap execution's CSR flow scatter, the Init
	// shared-object analysis, RankLoads, and the adaption-phase
	// target/execute/classification scans. ≤ 0 means
	// runtime.GOMAXPROCS; below SerialCutoff objects every scan falls
	// back to a serial loop regardless. Results are identical at every
	// worker count.
	Workers int

	// Prop is the exchange schedule of the adaption passes' notification
	// traffic — the propagation rounds, the classification round and the
	// coarsening consistency exchange (see internal/propagate). The zero
	// value, flat, is the paper's bulksync: one message per rank pair.
	Prop machine.Exchange

	// Exchange selects the communication schedule of the remap payload
	// exchange — flat (the zero value) or aggregated (see
	// machine.Exchange). It is a pricing parameter of the machine model,
	// as Prop is for the notifications: the records move between goroutine
	// ranks the same way under both, so owners, payloads, fault fates,
	// Moved/Sets/WordsMoved/PeakWords, and Ops are identical across
	// schedules; only the communication charges differ.
	Exchange machine.Exchange

	// Faults is the deterministic fault-injection plan driving the remap
	// payload exchange (internal/fault). nil — or a zero-rate plan —
	// runs the exchange over the plain transport, fault-free. When enabled,
	// the executor runs transactionally: the owner array is checkpointed,
	// failed windows are re-exchanged up to Retry.WindowRetries times, and
	// exhausted retries roll the ownership back to the checkpoint with a
	// typed *RemapError.
	Faults *fault.Plan
	// Retry bounds the recovery effort when Faults is enabled; the zero
	// value normalizes to fault.DefaultRetry.
	Retry fault.Retry
	// FaultCycle scopes the fault keys to the enclosing balance cycle, so
	// each cycle of a run draws an independent fault schedule.
	FaultCycle int

	// StageDeadline arms comm.World.SetDeadline on every world the remap
	// executor creates: a stage whose ranks have not all finished within
	// the deadline fails with a typed timeout instead of hanging the
	// process. Zero disables the watchdog (the deterministic default —
	// wall-clock deadlines are inherently timing-dependent).
	StageDeadline time.Duration

	// Trace records per-rank remap spans and streaming-window events on
	// the modeled timeline (internal/obs). nil disables tracing; every
	// emission site guards on the nil explicitly, so the disabled path
	// costs one pointer compare and zero allocations. Emission happens
	// only from serial canonical-order code — never inside the chunked
	// worker loops — and records only worker-invariant quantities, so
	// traces are byte-identical at any worker count.
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

	// owner[i] is the processor owning dual vertex i (level-0 element
	// tree i, in dual.Build scan order).
	owner []int32
	// rootDual maps a level-0 element id to its dual index; sized to the
	// element slab, -1 for non-roots.
	rootDual []int32
	// rootOwner maps a level-0 element id straight to its owner
	// (owner[rootDual[i]]), so the SPL probes resolve an element's rank
	// in one load. Every write to owner goes through setOwners or
	// setOwner, which keep it in step.
	rootOwner []int32

	// vertFlag is classifyPairs' per-vertex scratch and deadBefore
	// ParallelCoarsen's per-element liveness snapshot, kept across passes.
	vertFlag   []uint8
	deadBefore []bool
}

// NewDist builds the distributed view from a dual-graph partition
// assignment mapped directly to processors (partition i → processor i).
// asg must have one entry per dual vertex.
func NewDist(m *mesh.Mesh, p int, asg partition.Assignment) *Dist {
	d := &Dist{M: m, P: p, owner: make([]int32, len(asg))}
	copy(d.owner, asg)
	d.rebuildRootIndex()
	for _, o := range d.owner {
		if o < 0 || int(o) >= p {
			panic(fmt.Sprintf("par: owner %d out of range", o))
		}
	}
	return d
}

func (d *Dist) rebuildRootIndex() {
	d.rootDual = make([]int32, len(d.M.Elems))
	for i := range d.rootDual {
		d.rootDual[i] = -1
	}
	n := int32(0)
	for i := range d.M.Elems {
		t := &d.M.Elems[i]
		if t.Level == 0 && !t.Dead {
			d.rootDual[i] = n
			n++
		}
	}
	if int(n) != len(d.owner) {
		panic(fmt.Sprintf("par: %d roots vs %d owners", n, len(d.owner)))
	}
	d.rootOwner = make([]int32, len(d.rootDual))
	d.setOwners(d.owner)
}

// setOwners overwrites the ownership map with o and refreshes the
// root → owner slab (-1 for elements that are not roots).
func (d *Dist) setOwners(o []int32) {
	copy(d.owner, o)
	for i, dv := range d.rootDual {
		d.rootOwner[i] = -1
		if dv >= 0 {
			d.rootOwner[i] = d.owner[dv]
		}
	}
}

// setOwner assigns the tree rooted at level-0 element root to rank r.
func (d *Dist) setOwner(root mesh.ElemID, r int32) {
	d.owner[d.rootDual[root]] = r
	d.rootOwner[root] = r
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
	d.setOwners(o)
}

// OwnerOf returns the processor owning element el (the owner of its root's
// tree — all descendants move with the root, per the paper's Wremap
// rationale).
func (d *Dist) OwnerOf(el mesh.ElemID) int32 { return d.rootOwner[d.M.Elems[el].Root] }

// EdgeSPL returns the sorted shared-processor list of edge e: the owners
// of all active elements sharing it. A len > 1 list marks a shared edge.
func (d *Dist) EdgeSPL(e mesh.EdgeID, buf []int32) []int32 {
	buf = buf[:0]
	for _, el := range d.M.Edges[e].Elems {
		buf = append(buf, d.OwnerOf(el))
	}
	return dedupSorted(buf)
}

// VertSPL returns the sorted shared-processor list of vertex v (owners of
// active elements incident to v through its edges).
func (d *Dist) VertSPL(v mesh.VertID, buf []int32) []int32 {
	buf = buf[:0]
	for _, e := range d.M.Verts[v].Edges {
		for _, el := range d.M.Edges[e].Elems {
			buf = append(buf, d.OwnerOf(el))
		}
	}
	return dedupSorted(buf)
}

func dedupSorted(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	// Most objects are interior to one rank: a list of one repeated owner
	// needs no sort.
	i := 1
	for i < len(s) && s[i] == s[0] {
		i++
	}
	if i == len(s) {
		return s[:1]
	}
	// slices.Sort's pdqsort on the bare int32s: no comparator closure,
	// no interface boxing — this sort runs once per shared edge/vertex
	// probe, so comparator overhead is a real cost on the SPL hot path.
	slices.Sort(s)
	out := s[:1]
	for _, x := range s[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
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
// sizing the per-rank local subgrids. The edge, vertex, and element scans
// are chunked over Workers goroutines (serial below SerialCutoff objects);
// the per-chunk partial counts merge in chunk order, and every count is an
// integer sum, so the stats are identical at every worker count.
func (d *Dist) Init() InitStats {
	st := InitStats{LocalElems: make([]int64, d.P)}
	st.LocalEdges, st.SharedEdges = d.EdgeCensus()

	// Vertex scan: the shared-vertex census.
	nv := len(d.M.Verts)
	ncV := chunk.Count(nv, EffectiveWorkers(nv, d.Workers))
	vertShared := make([]int, ncV)
	vertTotal := make([]int, ncV)
	chunk.For(nv, EffectiveWorkers(nv, d.Workers), func(c, lo, hi int) {
		shared, total := 0, 0
		var buf []int32
		for vi := lo; vi < hi; vi++ {
			v := &d.M.Verts[vi]
			if v.Dead || len(v.Edges) == 0 {
				continue
			}
			total++
			spl := d.VertSPL(mesh.VertID(vi), buf)
			buf = spl
			if len(spl) > 1 {
				shared++
			}
		}
		vertShared[c] = shared
		vertTotal[c] = total
	})
	totalV := 0
	for c := 0; c < ncV; c++ {
		st.SharedVerts += vertShared[c]
		totalV += vertTotal[c]
	}

	// Element scan: per-rank local subgrid sizes.
	copy(st.LocalElems, d.localLoads())

	totalE := d.M.NumActiveEdges()
	if totalE+totalV > 0 {
		st.SharedFraction = float64(st.SharedEdges+st.SharedVerts) / float64(totalE+totalV)
	}
	return st
}

// EdgeCensus runs the chunked edge scan of the initialization analysis:
// the number of active edges each rank holds a copy of (an edge shared by
// k ranks counts once on each) and how many edges are shared. It is all
// the adaption passes need of Init to charge their marking phase. Each
// chunk probes SPLs into its own scratch buffer; the integer partials
// merge in chunk order.
func (d *Dist) EdgeCensus() (local []int64, shared int) {
	ne := len(d.M.Edges)
	// Slot P of the per-chunk counters carries the shared-edge count.
	cnt := chunk.GatherCounts(ne, EffectiveWorkers(ne, d.Workers), d.P+1, func(lo, hi int, cnt []int64) {
		var buf []int32
		for ei := lo; ei < hi; ei++ {
			ed := &d.M.Edges[ei]
			if ed.Dead || ed.Bisected() || len(ed.Elems) == 0 {
				continue
			}
			buf = d.EdgeSPL(mesh.EdgeID(ei), buf)
			for _, r := range buf {
				cnt[r]++
			}
			if len(buf) > 1 {
				cnt[d.P]++
			}
		}
	})
	return cnt[:d.P], int(cnt[d.P])
}

// localLoads runs the chunked active-element ownership scan, merging the
// per-chunk partial counts in chunk order.
func (d *Dist) localLoads() []int64 {
	n := len(d.M.Elems)
	return chunk.GatherCounts(n, EffectiveWorkers(n, d.Workers), d.P, func(lo, hi int, cnt []int64) {
		for i := lo; i < hi; i++ {
			if d.M.Elems[i].Active() {
				cnt[d.OwnerOf(mesh.ElemID(i))]++
			}
		}
	})
}

// RankLoads returns the active-element count per processor — the Wcomp
// load the preliminary-evaluation step balances. The scan is chunked over
// Workers goroutines; integer partial sums merge in chunk order, so the
// result is identical at every worker count.
func (d *Dist) RankLoads() []int64 {
	return d.localLoads()
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
