package par

// The CSR flow scatter behind the remap executor: migrating elements are
// laid out in one flat index, grouped by (src, dst) flow in canonical
// src-major order, with the same two-pass count/prefix-sum/fill structure
// as internal/psort's bucket scatter. Pass 1 counts each worker chunk's
// records per flow; a serial prefix sum lays the flows out contiguously
// (chunks in input order within each flow); pass 2 fills the index in
// parallel through per-(chunk, flow) cursors, so the hot loop allocates
// nothing and no two workers ever write the same word. The layout depends
// only on the element order — never on the chunking — so the index, and
// every window of records packRange packs from it, is byte-identical at
// every worker count.

import (
	"plum/internal/chunk"
	"plum/internal/machine"
	"plum/internal/mesh"
)

// recWords is the size of one migrating element record in the real
// payload exchange: (dualVertex, v0..v3, level).
const recWords = 6

// RecordWords is the exported size of one migrating element record, in
// words — Moved × RecordWords is the total payload-buffer volume a remap
// would materialize, the figure RemapResult.PeakWords is bounded by (and,
// under the streaming budget, strictly below on multi-flow workloads).
const RecordWords = recWords

// SerialCutoff is the object count below which the chunked remap scatter
// and the shared-object scans (Init, RankLoads) fall back to a serial
// loop: under ~8k objects the chunk bookkeeping costs more than the
// parallelism recovers. The serial path must be charged serially — cost
// reports below the cutoff have Crit == Total.
const SerialCutoff = 1 << 13

// EffectiveWorkers resolves the worker count a chunked scan actually runs
// with: the knob (≤ 0 = GOMAXPROCS), clamped to 1 below SerialCutoff
// objects and to n above it. Cost models must divide the parallel phases
// by this figure, not by the raw knob.
func EffectiveWorkers(n, workers int) int {
	return chunk.EffectiveWorkers(n, workers, SerialCutoff)
}

// flowIndex is one remap execution's CSR scatter: the migrating elements'
// slab indices grouped by flow in canonical (src, dst) order, ascending
// element id within a flow. It is payload-free — a twelfth the size of the
// records it names (one int32 per element instead of recWords int64) —
// which is what lets the executor bound payload memory to one window while
// still packing every flow's records in the canonical order.
type flowIndex struct {
	// elems holds the moved elements' slab indices, grouped by flow.
	elems []int32
	// flowStart has p·p+1 entries of record offsets; flow f = src·p + dst
	// owns indices [flowStart[f], flowStart[f+1]). Diagonal flows
	// (src == dst) are always empty.
	flowStart []int64
	// moved is the total record count; sets the number of nonempty flows.
	moved int64
	sets  int
}

// collectFlowIndex builds the CSR flow index for a remap from owner to
// newOwner over p ranks with ew workers. An element migrates when it is
// live, its root is a dual vertex, and that vertex changes owner; its
// whole refinement tree moves with it (the paper's Wremap rationale),
// which is why the scan walks the element slab rather than the dual
// vertices.
func collectFlowIndex(m *mesh.Mesh, rootDual, owner, newOwner []int32, p, ew int) flowIndex {
	n := len(m.Elems)
	nf := p * p
	// flowOf classifies element i, returning a negative value for
	// elements that stay put. It is the shared hot loop of both passes.
	flowOf := func(i int) int {
		t := &m.Elems[i]
		if t.Dead {
			return -1
		}
		dv := rootDual[t.Root]
		if dv < 0 {
			return -1
		}
		src, dst := owner[dv], newOwner[dv]
		if src == dst {
			return -1
		}
		return int(src)*p + int(dst)
	}

	// Pass 1 — per-chunk, per-flow record counts.
	nc := chunk.Count(n, ew)
	counts := make([][]int32, nc)
	chunk.For(n, ew, func(c, lo, hi int) {
		cnt := make([]int32, nf)
		for i := lo; i < hi; i++ {
			if f := flowOf(i); f >= 0 {
				cnt[f]++
			}
		}
		counts[c] = cnt
	})

	// Prefix sum — flows laid out in canonical order, chunks in input
	// order within each flow, so concatenation reproduces the global
	// element order regardless of the chunk count.
	fi := flowIndex{flowStart: make([]int64, nf+1)}
	cursor := make([][]int64, nc)
	for c := range cursor {
		cursor[c] = make([]int64, nf)
	}
	var pos int64
	for f := 0; f < nf; f++ {
		fi.flowStart[f] = pos
		for c := 0; c < nc; c++ {
			cursor[c][f] = pos
			pos += int64(counts[c][f])
		}
		if pos > fi.flowStart[f] {
			fi.sets++
		}
	}
	fi.flowStart[nf] = pos
	fi.moved = pos

	// Pass 2 — parallel index fill. Every (chunk, flow) region is
	// disjoint, so the scatter needs no locks and allocates nothing per
	// element.
	fi.elems = make([]int32, pos)
	chunk.For(n, ew, func(c, lo, hi int) {
		cur := cursor[c]
		for i := lo; i < hi; i++ {
			f := flowOf(i)
			if f < 0 {
				continue
			}
			fi.elems[cur[f]] = int32(i)
			cur[f]++
		}
	})
	return fi
}

// packRange packs the records of flows [f0, f1) into buf, which must hold
// exactly the range's record words. Records are contiguous across the
// range in canonical order, and each one is written independently from
// its slab index, so the fill parallelizes over records with no flow
// bookkeeping and the buffer content never depends on the chunking.
func (fi *flowIndex) packRange(m *mesh.Mesh, rootDual []int32, f0, f1 int, buf []int64, workers int) {
	base := fi.flowStart[f0]
	n := int(fi.flowStart[f1] - base)
	if int64(len(buf)) != int64(n)*recWords {
		panic("par: packRange buffer size mismatch")
	}
	chunk.For(n, EffectiveWorkers(n, workers), func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			t := &m.Elems[fi.elems[base+int64(r)]]
			o := r * recWords
			buf[o+0] = int64(rootDual[t.Root])
			buf[o+1] = int64(t.V[0])
			buf[o+2] = int64(t.V[1])
			buf[o+3] = int64(t.V[2])
			buf[o+4] = int64(t.V[3])
			buf[o+5] = int64(t.Level)
		}
	})
}

// PredictRemapOps returns the op accounting ExecuteRemap reports for a
// remap of moved element records in sets flows over an nElems-entry
// element slab on p ranks at the given worker knob. The quantities are
// exactly the cost model's C (elements moved, remap.MoveStats' first
// return) and N (element sets, its second), so the framework can charge
// the scatter work to the acceptance rule's cost side before deciding
// whether to execute the remap; an executed remap then reports the same
// figures in RemapResult.Ops.
func PredictRemapOps(nElems int, moved int64, sets, p, workers int) machine.Ops {
	ew := EffectiveWorkers(nElems, workers)
	var o machine.Ops
	// Pass 1: the chunked count scan streams the element slab
	// (compute-bound); the per-chunk flow tables fold into the workers'
	// scans, so Total is identical at every worker count.
	o.AddParallel(int64(nElems), ew)
	// Prefix-sum layout over the p² flow table plus per-flow message
	// bookkeeping: serial, compute-bound.
	o.AddSerial(int64(p*p) + int64(sets))
	// Pass 2: the parallel record fill — scatter writes, memory-bound.
	o.AddParallelMem(moved*recWords, ew)
	// Unpack side: draining and verifying the received records touches
	// the same volume once more, memory-bound.
	o.AddParallelMem(moved*recWords, ew)
	o.Clamp()
	return o
}
