package par

// The CSR flow scatter behind the remap executor: migrating elements are
// laid out in one flat index, grouped by (src, dst) flow in canonical
// src-major order, over the list of flows that exist. It is a two-pass
// count/prefix-sum/fill bucket scatter, with the table of flows built
// sparse: pass 1 counts each worker
// chunk's records per flow in per-source lists of the destinations seen; a
// serial merge sorts the union into the canonical flow list and lays the
// flows out contiguously (chunks in input order within each flow); pass 2
// fills the index in parallel through per-(chunk, flow) cursors, so no two
// workers ever write the same word. The layout depends only on the element
// order — never on the chunking — so the index, and every window of
// records packRange packs from it, is byte-identical at every worker
// count. Nothing here is sized by the p² rank pairs that could exchange
// data: memory and work are O(slab + moved + workers·(sets + p)).

import (
	"cmp"
	"math/bits"
	"slices"

	"plum/internal/chunk"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/remap"
)

// recWords is the size of one migrating element record in the real
// payload exchange: (root, v0..v3, level), the root element id being the
// tree's dual vertex.
const recWords = 6

// RecordWords is the exported size of one migrating element record, in
// words — Moved × RecordWords is the total payload-buffer volume a remap
// would materialize, the figure RemapResult.PeakWords is bounded by (and,
// under the streaming budget, strictly below on multi-flow workloads).
const RecordWords = recWords

// SerialCutoff is the object count below which the chunked remap scatter
// and the shared-object scans (Init, RankLoads) fall back to a serial
// loop: under ~8k objects the chunk bookkeeping costs more than the
// parallelism recovers. The remap execution's critical path
// (PredictRemapOps) is its work below the cutoff.
const SerialCutoff = 1 << 13

// EffectiveWorkers resolves the worker count a chunked scan actually runs
// with: the knob (≤ 0 = GOMAXPROCS), clamped to 1 below SerialCutoff
// objects and to n above it. It bounds the host's goroutines, and
// PredictRemapOps divides the remap execution's chunked phases by it.
func EffectiveWorkers(n, workers int) int {
	return chunk.EffectiveWorkers(n, workers, SerialCutoff)
}

// flowIndex is one remap execution's CSR scatter: the migrating elements'
// slab indices grouped by flow in canonical (src, dst) order, ascending
// element id within a flow, over the list of flows that exist. It is
// payload-free — a twelfth the size of the records it names (one int32 per
// element instead of recWords int64) — which is what lets the executor
// bound payload memory to one window while still packing every flow's
// records in the canonical order. Its size is O(moved + sets + p).
type flowIndex struct {
	// elems holds the moved elements' slab indices, grouped by flow; its
	// length is the cost model's C.
	elems []int32
	// flows lists the nonempty flows in canonical order (none is
	// diagonal), each with its element count — the list ChargeRemap
	// prices; flow f owns elems[flowStart[f]:flowStart[f+1]]. Its length
	// is the cost model's N.
	flows     []remap.Flow
	flowStart []int64
	// outStart has p+1 entries: rank r sends flows [outStart[r],
	// outStart[r+1]) — a contiguous stripe, the list being src-major.
	outStart []int32
	// inFlows lists the flow ids by destination, ascending source within
	// one: rank r receives inFlows[inStart[r]:inStart[r+1]].
	inStart, inFlows []int32
}

// in returns the flows rank r receives, ascending by source.
func (fi *flowIndex) in(r int) []int32 { return fi.inFlows[fi.inStart[r]:fi.inStart[r+1]] }

// find returns the id of flow src→dst, or -1 when no element takes it: a
// binary search of the source's stripe.
func (fi *flowIndex) find(src, dst int32) int {
	lo, end := int(fi.outStart[src]), int(fi.outStart[src+1])
	for hi := end; lo < hi; {
		if mid := int(uint(lo+hi) >> 1); fi.flows[mid].Dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == end || fi.flows[lo].Dst != dst {
		return -1
	}
	return lo
}

// flowCounts counts one chunk's movers per flow without a table of rank
// pairs: per source, a linked list of (destination, count) cells. A rank
// sends to few others, so the walk is short.
type flowCounts struct {
	head  []int32 // per source: its newest cell, -1 for none
	cells []flowCell
}

type flowCell struct {
	src, dst int32
	next     int32 // the source's next cell, -1 at the end
	n        int32
}

func (fc *flowCounts) add(src, dst int32) {
	for k := fc.head[src]; k >= 0; k = fc.cells[k].next {
		if fc.cells[k].dst == dst {
			fc.cells[k].n++
			return
		}
	}
	fc.cells = append(fc.cells, flowCell{src, dst, fc.head[src], 1})
	fc.head[src] = int32(len(fc.cells) - 1)
}

// collectFlowIndex builds the CSR flow index for a remap from owner to
// newOwner over p ranks with ew workers, both indexed by root element id.
// An element migrates when it is live and its root changes owner; its
// whole refinement tree moves with it (the paper's Wremap rationale),
// which is why the scan walks the element slab rather than the dual
// vertices.
func collectFlowIndex(m *mesh.Mesh, owner, newOwner []int32, p, ew int) flowIndex {
	n := len(m.Elems)
	// route classifies element i; ok is false for elements that stay put.
	// It is the shared hot loop of both passes.
	route := func(i int) (src, dst int32, ok bool) {
		t := &m.Elems[i]
		if t.Dead {
			return 0, 0, false
		}
		src, dst = owner[t.Root], newOwner[t.Root]
		return src, dst, src != dst
	}

	// Pass 1 — per-chunk, per-flow record counts.
	nc := chunk.Count(n, ew)
	counts := make([]flowCounts, nc)
	chunk.For(n, ew, func(c, lo, hi int) {
		fc := flowCounts{head: make([]int32, p)}
		for r := range fc.head {
			fc.head[r] = -1
		}
		for i := lo; i < hi; i++ {
			if src, dst, ok := route(i); ok {
				fc.add(src, dst)
			}
		}
		counts[c] = fc
	})

	// Merge — the flows that exist are the union of the chunks' cells, in
	// canonical order; each rank's stripe of them follows.
	var fi flowIndex
	for _, fc := range counts {
		for _, cell := range fc.cells {
			fi.flows = append(fi.flows, remap.Flow{Src: cell.src, Dst: cell.dst})
		}
	}
	slices.SortFunc(fi.flows, func(a, b remap.Flow) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	fi.flows = slices.Compact(fi.flows)
	sets := len(fi.flows)
	fi.outStart = make([]int32, p+1)
	fi.inStart = make([]int32, p+1)
	for _, fl := range fi.flows {
		fi.outStart[fl.Src+1]++
		fi.inStart[fl.Dst+1]++
	}
	for r := 0; r < p; r++ {
		fi.outStart[r+1] += fi.outStart[r]
		fi.inStart[r+1] += fi.inStart[r]
	}
	fi.inFlows = make([]int32, sets)
	next := slices.Clone(fi.inStart[:p])
	for f, fl := range fi.flows {
		fi.inFlows[next[fl.Dst]] = int32(f)
		next[fl.Dst]++
	}

	// Prefix sum — flows laid out in canonical order, chunks in input
	// order within each flow, so concatenation reproduces the global
	// element order regardless of the chunk count. Chunk c's cursors are
	// cursor[c*sets : (c+1)*sets].
	cursor := make([]int64, nc*sets)
	for c, fc := range counts {
		for _, cell := range fc.cells {
			cursor[c*sets+fi.find(cell.src, cell.dst)] = int64(cell.n)
		}
	}
	fi.flowStart = make([]int64, sets+1)
	var pos int64
	for f := 0; f < sets; f++ {
		fi.flowStart[f] = pos
		for c := 0; c < nc; c++ {
			pos, cursor[c*sets+f] = pos+cursor[c*sets+f], pos
		}
		fi.flows[f].Elems = pos - fi.flowStart[f]
	}
	fi.flowStart[sets] = pos

	// Pass 2 — parallel index fill. Every (chunk, flow) region is
	// disjoint, so the scatter needs no locks and allocates nothing per
	// element.
	fi.elems = make([]int32, pos)
	chunk.For(n, ew, func(c, lo, hi int) {
		cur := cursor[c*sets : (c+1)*sets]
		for i := lo; i < hi; i++ {
			if src, dst, ok := route(i); ok {
				f := fi.find(src, dst)
				fi.elems[cur[f]] = int32(i)
				cur[f]++
			}
		}
	})
	return fi
}

// packRange packs the records of flows [f0, f1) into buf, which must hold
// exactly the range's record words. Records are contiguous across the
// range in canonical order, and each one is written independently from
// its slab index, so the fill parallelizes over records with no flow
// bookkeeping and the buffer content never depends on the chunking. A
// window below the serial cutoff packs inline, without a chunk closure.
func (fi *flowIndex) packRange(m *mesh.Mesh, f0, f1 int, buf []int64, workers int) {
	base := fi.flowStart[f0]
	n := int(fi.flowStart[f1] - base)
	if int64(len(buf)) != int64(n)*recWords {
		panic("par: packRange buffer size mismatch")
	}
	if w := EffectiveWorkers(n, workers); w > 1 {
		chunk.For(n, w, func(_, lo, hi int) { fi.pack(m, base, buf, lo, hi) })
	} else {
		fi.pack(m, base, buf, 0, n)
	}
}

// pack writes records [lo, hi) of the range starting at element offset
// base into buf.
func (fi *flowIndex) pack(m *mesh.Mesh, base int64, buf []int64, lo, hi int) {
	for r := lo; r < hi; r++ {
		t := &m.Elems[fi.elems[base+int64(r)]]
		o := r * recWords
		buf[o+0] = int64(t.Root)
		buf[o+1] = int64(t.V[0])
		buf[o+2] = int64(t.V[1])
		buf[o+3] = int64(t.V[2])
		buf[o+4] = int64(t.V[3])
		buf[o+5] = int64(t.Level)
	}
}

// PredictRemapOps returns the work of one remap execution's scatter,
// pack and unpack, and its critical path at the given worker knob, for a
// remap of moved element records in sets flows over an nElems-entry
// element slab on p ranks. The quantities are exactly the cost model's C
// (elements moved, remap.MoveStats' first return) and N (element sets,
// its second), so the framework prices the execution on the acceptance
// rule's cost side before deciding whether to execute the remap. The
// critical path divides the chunked phases by the effective worker count,
// which is 1 below SerialCutoff elements, so there it equals the work;
// like the curve charge's it is capped at the work. Every term is linear
// in the slab, the moved records, the flows or p — none in the p² pairs
// that could exist.
func PredictRemapOps(nElems int, moved int64, sets, p, workers int) (work, crit machine.Ops) {
	ew := int64(EffectiveWorkers(nElems, workers))
	// Pass 1: the chunked count scan streams the element slab
	// (compute-bound); the per-chunk flow counts fold into the workers'
	// scans, so the work is the same at every worker count.
	scan := int64(nElems)
	// Every moved record looks its flow up twice — the destination list
	// walk of the count, the stripe search of the fill: compute-bound.
	lookups := 2 * moved
	// The merge: sorting the flow list, its layout prefix sum, the
	// per-rank stripes and by-destination index, and the per-flow message
	// and accounting bookkeeping: serial, compute-bound.
	merge := 2*int64(p) + int64(sets)*int64(3+bits.Len(uint(sets)))
	// Pass 2, the parallel record fill (scatter writes), and the unpack
	// side, draining and verifying the received records: each touches the
	// moved volume once, memory-bound.
	records := moved * recWords
	work = machine.Ops{Total: scan + lookups + merge + 2*records, Mem: 2 * records}
	critMem := 2 * machine.CeilDiv(records, ew)
	critTotal := machine.CeilDiv(scan, ew) + machine.CeilDiv(lookups, ew) + merge + critMem
	return work, machine.Ops{Total: min(critTotal, work.Total), Mem: min(critMem, work.Mem)}
}
