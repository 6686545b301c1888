package par

import (
	"math"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/remap"
)

func TestParallelCoarsenMatchesSerial(t *testing.T) {
	// Identical marks must produce identical meshes regardless of the
	// execution path (serial kernel vs. distributed replay).
	serialM := meshgen.SmallBox()
	serialA := adapt.New(serialM)
	serialA.MarkRandom(0.12, adapt.MarkRefine, 31)
	serialA.Refine()
	serialA.MarkRandom(0.2, adapt.MarkCoarsen, 32)
	serialSt := serialA.Coarsen()

	d, a, _ := fixture(t, 4)
	a.MarkRandom(0.12, adapt.MarkRefine, 31)
	d.ParallelRefine(a, machine.SP2())
	a.MarkRandom(0.2, adapt.MarkCoarsen, 32)
	parSt, _ := d.ParallelCoarsen(a, machine.SP2())

	if serialSt.GroupsRemoved != parSt.GroupsRemoved ||
		serialSt.ElemsRemoved != parSt.ElemsRemoved {
		t.Errorf("coarsen stats differ: serial %+v, parallel %+v", serialSt, parSt)
	}
	if serialM.NumActiveElems() != d.M.NumActiveElems() ||
		serialM.NumActiveEdges() != d.M.NumActiveEdges() {
		t.Errorf("meshes differ: %v vs %v", serialM.Stats(), d.M.Stats())
	}
	if math.Abs(serialM.TotalVolume()-d.M.TotalVolume()) > 1e-12 {
		t.Error("volumes differ")
	}
}

func TestAdaptAfterRemap(t *testing.T) {
	// The pipeline must keep working after ownership changed: refine,
	// remap everything around, refine again, and verify the distributed
	// bookkeeping (SPLs, loads) stays consistent.
	d, a, g := fixture(t, 4)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.5}, adapt.MarkRefine)
	d.ParallelRefine(a, machine.SP2())
	g.UpdateWeights(d.M)

	// Rotate ownership: rank r -> (r+1) mod 4.
	newOwner := d.Owners()
	for v := range newOwner {
		newOwner[v] = (newOwner[v] + 1) % 4
	}
	if _, err := d.ExecuteRemap(newOwner, countFlows(d.M, d.owner, newOwner), machine.SP2()); err != nil {
		t.Fatal(err)
	}

	// Loads must have rotated with the trees.
	loads := d.RankLoads()
	var total int64
	for _, l := range loads {
		total += l
	}
	if total != int64(d.M.NumActiveElems()) {
		t.Fatalf("loads sum %d != %d after remap", total, d.M.NumActiveElems())
	}

	// A second adaption on the remapped distribution must stay valid and
	// produce sane timings.
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 1, Y: 1, Z: 1}, Radius: 0.4}, adapt.MarkRefine)
	_, tm := d.ParallelRefine(a, machine.SP2())
	if tm.Total <= 0 {
		t.Error("no timing after remap")
	}
	if err := d.M.Check(); err != nil {
		t.Fatalf("mesh invalid after remap+refine: %v", err)
	}
	st := d.Init()
	if st.SharedEdges == 0 {
		t.Error("no shared edges after remap")
	}
}

// TestSFCPartitionParity runs the full adaption + repartition + remap
// pipeline through the SFC backends and checks the same invariants the
// graph partitioners satisfy: identical mesh evolution to the serial
// path, conserved elements/vertices through the remap, and a valid mesh.
func TestSFCPartitionParity(t *testing.T) {
	const p = 4
	for _, method := range []partition.Method{partition.MethodMortonSFC, partition.MethodHilbertSFC} {
		// Serial reference: same marks, no distribution.
		serialM := meshgen.SmallBox()
		serialA := adapt.New(serialM)
		serialA.MarkRandom(0.15, adapt.MarkRefine, 77)
		serialA.Refine()

		// Distributed over an SFC partition.
		m := meshgen.SmallBox()
		g := dual.Build(m)
		r := partition.NewRepartitioner(g, method, partition.Options{})
		asg := r.Initial(p)
		d := NewDist(m, p, asg)
		a := adapt.New(m)
		a.MarkRandom(0.15, adapt.MarkRefine, 77)
		d.ParallelRefine(a, machine.SP2())

		if serialM.NumActiveElems() != d.M.NumActiveElems() ||
			serialM.NumVerts() != d.M.NumVerts() ||
			serialM.NumActiveEdges() != d.M.NumActiveEdges() {
			t.Errorf("%v: distributed adaption diverged from serial: %v vs %v",
				method, serialM.Stats(), d.M.Stats())
		}

		// Incremental repartition on the adapted weights, mapped to
		// minimize movement, then the executed remap.
		g.UpdateWeights(m)
		newPart, _, _ := r.Repartition(p, nil, machine.SP2())
		if imb := partition.Imbalance(g, newPart, p); imb > 1.10 {
			t.Errorf("%v: repartition imbalance %.3f > 1.10", method, imb)
		}
		sim := remap.Build(d.Owners(), newPart, g.Wremap, p, 1)
		mp, _, _ := sim.Heuristic()
		if err := sim.Validate(mp); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		newOwner := make([]int32, len(newPart))
		for v, part := range newPart {
			newOwner[v] = mp[part]
		}
		before := d.M.NumActiveElems()
		beforeVol := d.M.TotalVolume()
		if _, err := d.ExecuteRemap(newOwner, countFlows(d.M, d.owner, newOwner), machine.SP2()); err != nil {
			t.Fatalf("%v: remap failed: %v", method, err)
		}

		// Conservation: the remap moves ownership, never mesh content.
		if d.M.NumActiveElems() != before {
			t.Errorf("%v: remap changed element count %d -> %d", method, before, d.M.NumActiveElems())
		}
		if math.Abs(d.M.TotalVolume()-beforeVol) > 1e-12 {
			t.Errorf("%v: remap changed total volume", method)
		}
		var total int64
		for _, l := range d.RankLoads() {
			total += l
		}
		if total != int64(d.M.NumActiveElems()) {
			t.Errorf("%v: loads sum %d != %d active elements", method, total, d.M.NumActiveElems())
		}
		if err := d.M.Check(); err != nil {
			t.Errorf("%v: mesh invalid after SFC remap: %v", method, err)
		}

		// A second adaption on the remapped distribution keeps working.
		a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Radius: 0.4}, adapt.MarkRefine)
		if _, tm := d.ParallelRefine(a, machine.SP2()); tm.Total <= 0 {
			t.Errorf("%v: no timing after remap", method)
		}
		if err := d.M.Check(); err != nil {
			t.Errorf("%v: mesh invalid after remap+refine: %v", method, err)
		}
	}
}

func TestFinalizeAfterCoarsenToInitial(t *testing.T) {
	// Gather on a mesh that went through a full refine/coarsen cycle
	// (dead objects present, pre-compaction).
	d, a, _ := fixture(t, 4)
	a.MarkRandom(0.1, adapt.MarkRefine, 51)
	a.Refine()
	a.MarkRegion(geom.All{}, adapt.MarkCoarsen)
	a.Coarsen()
	res, err := d.Finalize(machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if res.Elems != 384 {
		t.Errorf("gathered %d, want 384", res.Elems)
	}
}
