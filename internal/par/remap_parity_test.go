package par

import (
	"reflect"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// bigFixture builds a mesh large enough to engage the parallel remap
// scatter and SPL scans (> SerialCutoff elements), distributed over p
// ranks, plus a reassignment that migrates a mixed set of trees.
func bigFixture(t testing.TB, p int) (*Dist, []int32) {
	t.Helper()
	m := meshgen.Box(12, 12, 12, geom.Vec3{X: 1, Y: 1, Z: 1}) // 10368 elements > SerialCutoff
	g := dual.Build(m)
	asg := partition.Partition(g, p, partition.MethodInertial)
	d := NewDist(m, p, asg)
	// Migrate about a third of the trees with a deterministic mix of
	// small rotations, leaving the rest put — many flows, all shapes.
	newOwner := d.Owners()
	for v := range newOwner {
		switch v % 3 {
		case 0:
			newOwner[v] = (newOwner[v] + 1) % int32(p)
		case 1:
			if v%6 == 1 {
				newOwner[v] = (newOwner[v] + int32(p) - 1) % int32(p)
			}
		}
	}
	return d, newOwner
}

// packAll packs every flow of fi into one record buffer — the
// whole-payload window — at the given worker knob.
func packAll(d *Dist, fi *flowIndex, workers int) []int64 {
	recs := make([]int64, len(fi.elems)*recWords)
	fi.packRange(d.M, d.rootDual, 0, len(fi.flows), recs, workers)
	return recs
}

// TestRemapExecWorkerParity is the determinism contract of the parallel
// remap execution: the CSR payload buffer, the updated owner array, and
// the whole RemapResult — modeled float times included — must be
// byte-identical at every worker count. Only the critical-path op shares
// may differ (they reflect the effective worker count actually used).
func TestRemapExecWorkerParity(t *testing.T) {
	const p = 8
	refD, newOwner := bigFixture(t, p)
	refD.Workers = 1
	refIdx := collectFlowIndex(refD.M, refD.rootDual, refD.owner, newOwner, p, 1)
	refRecs := packAll(refD, &refIdx, 1)
	refRes, err := refD.ExecuteRemap(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Ops.Crit != refRes.Ops.Total || refRes.Ops.MemCrit != refRes.Ops.MemTotal {
		t.Fatalf("workers=1 must report Crit == Total: %+v", refRes.Ops)
	}
	if refRes.Moved == 0 || refRes.Sets < 2 {
		t.Fatalf("fixture moved nothing interesting: %+v", refRes)
	}

	for _, w := range []int{2, 4, 8} {
		d, _ := bigFixture(t, p)
		d.Workers = w
		fi := collectFlowIndex(d.M, d.rootDual, d.owner, newOwner, p, EffectiveWorkers(len(d.M.Elems), w))
		if !reflect.DeepEqual(fi, refIdx) {
			t.Fatalf("workers=%d: CSR flow index diverges", w)
		}
		if !reflect.DeepEqual(packAll(d, &fi, w), refRecs) {
			t.Fatalf("workers=%d: payload buffer diverges", w)
		}
		res, err := d.ExecuteRemap(newOwner, machine.SP2())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.Owners(), refD.Owners()) {
			t.Fatalf("workers=%d: owner array diverges", w)
		}
		if res.Ops.Crit > res.Ops.Total || res.Ops.MemCrit > res.Ops.MemTotal {
			t.Errorf("workers=%d: critical path exceeds total: %+v", w, res.Ops)
		}
		if res.Ops.Total != refRes.Ops.Total || res.Ops.MemTotal != refRes.Ops.MemTotal {
			t.Errorf("workers=%d: op totals not worker-invariant: %d/%d vs %d/%d",
				w, res.Ops.Total, res.Ops.MemTotal, refRes.Ops.Total, refRes.Ops.MemTotal)
		}
		// Everything but the critical-path shares must be bit-identical —
		// the modeled times are float sums in canonical flow order.
		res.Ops.Crit, res.Ops.MemCrit = refRes.Ops.Crit, refRes.Ops.MemCrit
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("workers=%d: RemapResult diverges:\n got %+v\nwant %+v", w, res, refRes)
		}
	}
}

// TestRemapResultDeterministic is the regression test for the modeled-time
// nondeterminism of the map-based collector: two identical runs must
// produce bit-identical RemapResults (PackTime/CommTime/WordsMoved were
// previously summed in map iteration order).
func TestRemapResultDeterministic(t *testing.T) {
	const p = 8
	run := func() RemapResult {
		d, newOwner := bigFixture(t, p)
		d.Workers = 4
		res, err := d.ExecuteRemap(newOwner, machine.SP2())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical remaps differ:\n  %+v\n  %+v", a, b)
	}
}

// TestPredictRemapOpsMatchesExecute pins the acceptance-rule contract:
// the ops predicted from (nElems, C, N) before the decision are exactly
// what the executed remap reports.
func TestPredictRemapOpsMatchesExecute(t *testing.T) {
	for _, w := range []int{1, 4} {
		d, newOwner := bigFixture(t, 4)
		d.Workers = w
		res, err := d.ExecuteRemap(newOwner, machine.SP2())
		if err != nil {
			t.Fatal(err)
		}
		pred := PredictRemapOps(len(d.M.Elems), res.Moved, res.Sets, d.P, w)
		if pred != res.Ops {
			t.Errorf("workers=%d: predicted %+v, executed %+v", w, pred, res.Ops)
		}
	}
}

// TestRemapSerialFallbackCritEqualsTotal pins the cost model to the
// execution path: below SerialCutoff elements a large worker knob must
// not discount the critical path.
func TestRemapSerialFallbackCritEqualsTotal(t *testing.T) {
	m := meshgen.SmallBox() // 384 elements: far below SerialCutoff
	g := dual.Build(m)
	d := NewDist(m, 4, partition.Partition(g, 4, partition.MethodGraphGrow))
	d.Workers = 8
	newOwner := d.Owners()
	for v := range newOwner {
		newOwner[v] = (newOwner[v] + 1) % 4
	}
	res, err := d.ExecuteRemap(newOwner, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops.Crit != res.Ops.Total || res.Ops.MemCrit != res.Ops.MemTotal {
		t.Errorf("serial fallback must report Crit == Total: %+v", res.Ops)
	}
	if ew := EffectiveWorkers(len(m.Elems), 8); ew != 1 {
		t.Errorf("EffectiveWorkers(%d, 8) = %d, want 1", len(m.Elems), ew)
	}
}

// TestInitWorkerParity checks the chunked shared-object scans: Init and
// RankLoads must produce identical stats at every worker count, on a mesh
// big enough to run the parallel path, including after an adaption.
func TestInitWorkerParity(t *testing.T) {
	build := func(w int) *Dist {
		m := meshgen.Box(12, 12, 12, geom.Vec3{X: 1, Y: 1, Z: 1})
		g := dual.Build(m)
		d := NewDist(m, 8, partition.Partition(g, 8, partition.MethodInertial))
		d.Workers = w
		a := adapt.New(m)
		a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 0.3, Y: 0.3, Z: 0.3}, Radius: 0.3}, adapt.MarkRefine)
		a.Refine()
		return d
	}
	ref := build(1)
	refStats := ref.Init()
	refLoads := ref.RankLoads()
	if refStats.SharedEdges == 0 || refStats.SharedVerts == 0 {
		t.Fatal("fixture has no shared objects")
	}
	for _, w := range []int{2, 4, 8} {
		d := build(w)
		if st := d.Init(); !reflect.DeepEqual(st, refStats) {
			t.Errorf("workers=%d: InitStats diverge:\n got %+v\nwant %+v", w, st, refStats)
		}
		if loads := d.RankLoads(); !reflect.DeepEqual(loads, refLoads) {
			t.Errorf("workers=%d: RankLoads diverge: %v vs %v", w, loads, refLoads)
		}
	}
}
