package par

import (
	"math"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/remap"
)

// fixture builds a small box mesh distributed over p ranks.
func fixture(t *testing.T, p int) (*Dist, *adapt.Adaptor, *dual.Graph) {
	t.Helper()
	m := meshgen.SmallBox()
	g := dual.Build(m)
	asg := partition.Partition(g, p, partition.MethodHilbertSFC)
	return NewDist(m, p, asg), adapt.New(m), g
}

func TestOwnershipInheritance(t *testing.T) {
	d, a, _ := fixture(t, 4)
	owners := map[int32]bool{}
	for i := range d.M.Elems {
		owners[d.OwnerOf(mesh.ElemID(i))] = true
	}
	if len(owners) != 4 {
		t.Fatalf("expected 4 owners, got %d", len(owners))
	}
	// Refine; children must inherit the root's owner.
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Radius: 0.4}, adapt.MarkRefine)
	a.Refine()
	for i := range d.M.Elems {
		el := &d.M.Elems[i]
		if el.Parent >= 0 && !el.Dead {
			if d.OwnerOf(mesh.ElemID(i)) != d.OwnerOf(el.Parent) {
				t.Fatal("child owned differently from parent")
			}
		}
	}
}

func TestInitSharedStats(t *testing.T) {
	d, _, _ := fixture(t, 8)
	st := d.Init()
	if st.SharedEdges == 0 || st.SharedVerts == 0 {
		t.Error("no shared objects on an 8-way partition")
	}
	// The paper reports <10% additional storage at 60k elements; a 384-
	// element mesh cut 8 ways is surface-dominated, so only require the
	// fraction to shrink with mesh size (surface-to-volume scaling).
	m2 := meshgen.Box(8, 8, 8, geom.Vec3{X: 1, Y: 1, Z: 1})
	g2 := dual.Build(m2)
	d2 := NewDist(m2, 8, partition.Partition(g2, 8, partition.MethodHilbertSFC))
	st2 := d2.Init()
	if st2.SharedFraction >= st.SharedFraction {
		t.Errorf("shared fraction did not shrink with mesh size: %.3f -> %.3f",
			st.SharedFraction, st2.SharedFraction)
	}
	var localElems int64
	for _, n := range st.LocalElems {
		localElems += n
	}
	if localElems != int64(d.M.NumActiveElems()) {
		t.Errorf("local elements sum %d != %d", localElems, d.M.NumActiveElems())
	}
	// Local edge counts exceed the global count by exactly the shared
	// copies.
	var localEdges int64
	for _, n := range st.LocalEdges {
		localEdges += n
	}
	if localEdges < int64(d.M.NumActiveEdges()) {
		t.Error("local edges undercount")
	}
}

func TestParallelRefineMatchesSerial(t *testing.T) {
	// The distributed execution must produce the same mesh as the serial
	// kernel for the same marks.
	serialM := meshgen.SmallBox()
	serialA := adapt.New(serialM)
	serialA.MarkRandom(0.10, adapt.MarkRefine, 7)
	serialSt := serialA.Refine()

	d, a, _ := fixture(t, 4)
	a.MarkRandom(0.10, adapt.MarkRefine, 7)
	parSt, tm := d.ParallelRefine(a, machine.SP2())

	if serialSt != parSt {
		t.Errorf("stats differ: serial %+v, parallel %+v", serialSt, parSt)
	}
	if tm.Visits != int64(parSt.Propagations) {
		t.Errorf("engine visited %d elements, the stats count %d", tm.Visits, parSt.Propagations)
	}
	if serialM.NumActiveElems() != d.M.NumActiveElems() ||
		serialM.NumActiveEdges() != d.M.NumActiveEdges() {
		t.Errorf("meshes differ: serial %v, parallel %v", serialM.Stats(), d.M.Stats())
	}
	if math.Abs(serialM.TotalVolume()-d.M.TotalVolume()) > 1e-12 {
		t.Error("volumes differ")
	}
	if err := d.M.Check(); err != nil {
		t.Fatalf("parallel mesh invalid: %v", err)
	}
	if tm.Total <= 0 || tm.CommRounds < 1 {
		t.Errorf("timings: %+v", tm)
	}
	if tm.Target <= 0 || tm.Execute <= 0 {
		t.Errorf("phase timings missing: %+v", tm)
	}
}

// TestParallelRefineBisectsWhatItClosed pins the kernel to the charged
// closure: on a conforming mesh (one round) ParallelRefine bisects the
// marked edges and the edges its propagation engine committed, no more
// and no fewer.
func TestParallelRefineBisectsWhatItClosed(t *testing.T) {
	rotor := meshgen.RotorDisk(meshgen.RotorParams{
		NR: 8, NTheta: 10, NZ: 6, R0: 0.5, R1: 2, Sweep: 2.5, Height: 1,
	})
	for _, tc := range []struct {
		name string
		m    *mesh.Mesh
		p    int
	}{{"smallbox", meshgen.SmallBox(), 4}, {"rotor", rotor, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDist(tc.m, tc.p, partition.Partition(dual.Build(tc.m), tc.p, partition.MethodHilbertSFC))
			a := adapt.New(tc.m)
			a.MarkRandom(0.05, adapt.MarkRefine, 11)
			marked := 0
			for e, mk := range a.MarksSnapshot() {
				if mk == adapt.MarkRefine && !tc.m.Edge(mesh.EdgeID(e)).Bisected() {
					marked++
				}
			}
			st, tm := d.ParallelRefine(a, machine.SP2())
			if tm.Marked == 0 {
				t.Fatal("the engine committed no mark: the fixture does not propagate")
			}
			if want := marked + int(tm.Marked); st.EdgesBisected != want {
				t.Errorf("bisected %d edges; %d marked + %d the engine committed = %d",
					st.EdgesBisected, marked, tm.Marked, want)
			}
		})
	}
}

func TestParallelRefineSpeedup(t *testing.T) {
	// Random marks must show parallel speedup in modeled time.
	mdl := machine.SP2()
	run := func(p int) float64 {
		d, a, _ := fixture(t, p)
		a.MarkRandom(0.15, adapt.MarkRefine, 3)
		_, tm := d.ParallelRefine(a, mdl)
		return tm.Total
	}
	t1 := run(1)
	t8 := run(8)
	if t8 >= t1 {
		t.Fatalf("no speedup: T1=%g T8=%g", t1, t8)
	}
	if sp := t1 / t8; sp < 2 {
		t.Errorf("speedup %.2f at P=8 too low for random marks", sp)
	}
}

func TestParallelRefineLocalizedWorseThanRandom(t *testing.T) {
	// The paper's central performance observation (Fig. 8): a compact
	// adaption region yields worse speedup than random adaption.
	mdl := machine.SP2()
	run := func(mark func(a *adapt.Adaptor)) float64 {
		d, a, _ := fixture(t, 8)
		mark(a)
		_, tm := d.ParallelRefine(a, mdl)
		d1, a1, _ := fixture(t, 1)
		mark(a1)
		_, tm1 := d1.ParallelRefine(a1, mdl)
		return tm1.Total / tm.Total
	}
	spLocal := run(func(a *adapt.Adaptor) {
		a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 0.1, Y: 0.1, Z: 0.1}, Radius: 0.25}, adapt.MarkRefine)
	})
	spRandom := run(func(a *adapt.Adaptor) {
		a.MarkRandom(0.05, adapt.MarkRefine, 11)
	})
	if spLocal >= spRandom {
		t.Errorf("localized speedup %.2f ≥ random %.2f; expected worse", spLocal, spRandom)
	}
}

func TestParallelCoarsen(t *testing.T) {
	d, a, _ := fixture(t, 4)
	a.MarkRandom(0.10, adapt.MarkRefine, 7)
	d.ParallelRefine(a, machine.SP2())
	grown := d.M.NumActiveElems()

	a.MarkRegion(geom.All{}, adapt.MarkCoarsen)
	st, tm := d.ParallelCoarsen(a, machine.SP2())
	if st.GroupsRemoved == 0 {
		t.Error("nothing coarsened")
	}
	if d.M.NumActiveElems() >= grown {
		t.Error("mesh did not shrink")
	}
	if tm.Total <= 0 {
		t.Errorf("timings: %+v", tm)
	}
	if err := d.M.Check(); err != nil {
		t.Fatalf("mesh invalid after parallel coarsen: %v", err)
	}
}

func TestRankLoadsAndImbalance(t *testing.T) {
	d, a, _ := fixture(t, 4)
	loads := d.RankLoads()
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if sum != int64(d.M.NumActiveElems()) {
		t.Errorf("loads sum %d != %d", sum, d.M.NumActiveElems())
	}
	if f := ImbalanceFactor(loads); f < 1 || f > 1.5 {
		t.Errorf("initial imbalance %.3f", f)
	}
	// Refine one corner: imbalance must rise.
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.5}, adapt.MarkRefine)
	a.Refine()
	if f := ImbalanceFactor(d.RankLoads()); f < 1.2 {
		t.Errorf("imbalance after corner refinement = %.3f, expected > 1.2", f)
	}
}

func TestExecuteRemapConservation(t *testing.T) {
	d, a, g := fixture(t, 4)
	a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.5}, adapt.MarkRefine)
	a.Refine()
	g.UpdateWeights(d.M)

	// Move everything from rank 0 to rank 1.
	newOwner := d.Owners()
	var expectMoved int64
	for v, o := range newOwner {
		if o == 0 {
			newOwner[v] = 1
			expectMoved += g.Wremap[v]
		}
	}
	res, err := d.ExecuteRemap(newOwner, remap.Flows(new(machine.Pairs), d.owner, newOwner, g.Wremap), machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != expectMoved {
		t.Errorf("moved %d elements, want %d (ΣWremap)", res.Moved, expectMoved)
	}
	if res.Sets != 1 {
		t.Errorf("sets = %d, want 1", res.Sets)
	}
	if res.Total <= 0 || res.WordsMoved < res.Moved*50 {
		t.Errorf("result: %+v", res)
	}
	// Ownership updated.
	for _, o := range d.Owners() {
		if o == 0 {
			t.Fatal("rank 0 still owns trees after remap")
		}
	}
}

func TestExecuteRemapIdentity(t *testing.T) {
	d, _, _ := fixture(t, 4)
	res, err := d.ExecuteRemap(d.Owners(), nil, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 0 || res.Sets != 0 || res.WordsMoved != 0 {
		t.Errorf("identity remap moved data: %+v", res)
	}
}

func TestExecuteRemapRejectsBadLength(t *testing.T) {
	d, _, _ := fixture(t, 2)
	if _, err := d.ExecuteRemap(make([]int32, 3), nil, machine.SP2()); err == nil {
		t.Error("accepted wrong-length owner array")
	}
}

// TestFinalizeAfterCrash checks the gather once rank 0 has died: the
// survivors' elements are gathered on the lowest surviving rank, only the
// live senders pay a message, and a dead rank that still owns elements
// is an error, not a short gather.
func TestFinalizeAfterCrash(t *testing.T) {
	const p = 4
	d, _, _ := fixture(t, p)
	mdl := machine.SP2()
	d.MarkDead([]int{0})
	if _, err := d.Finalize(mdl); err == nil {
		t.Fatal("finalize gathered around a dead rank that still owns elements")
	}
	newOwner := d.Owners()
	for v, o := range newOwner {
		if o == 0 {
			newOwner[v] = 1 + int32(v)%(p-1)
		}
	}
	if _, err := d.ExecuteRemapRecovery(newOwner, countFlows(d.M, d.owner, newOwner), mdl); err != nil {
		t.Fatal(err)
	}
	res, err := d.Finalize(mdl)
	if err != nil {
		t.Fatal(err)
	}
	loads := d.RankLoads()
	if loads[0] != 0 || res.Elems != int64(d.M.NumActiveElems()) {
		t.Fatalf("gathered %d elements (rank 0 owns %d), want %d", res.Elems, loads[0], d.M.NumActiveElems())
	}
	// Rank 1 hosts; ranks 2 and 3 send.
	w2, w3 := loads[2]*finalizeWords, loads[3]*finalizeWords
	host := float64(w2)*mdl.UnpackWord + float64(w3)*mdl.UnpackWord
	want := max(host, mdl.MsgTime(w2), mdl.MsgTime(w3))
	if res.Words != w2+w3 || res.Time != want {
		t.Errorf("gather charged %d words in %g s, want %d in %g", res.Words, res.Time, w2+w3, want)
	}
}

func TestFinalizeGather(t *testing.T) {
	d, a, _ := fixture(t, 4)
	a.MarkRandom(0.05, adapt.MarkRefine, 13)
	a.Refine()
	res, err := d.Finalize(machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if res.Elems != int64(d.M.NumActiveElems()) {
		t.Errorf("gathered %d, want %d", res.Elems, d.M.NumActiveElems())
	}
	if res.Time <= 0 || res.Words <= 0 {
		t.Errorf("result: %+v", res)
	}
}

// TestFinishRefineChargesTheOwnersItFinds holds the split refinement to
// the owners each half runs on: a pass closed on one ownership and
// finished after the owners changed charges its subdivision and
// classification as a whole pass on the new owners does, and creates the
// same mesh, while a pass on the old owners throughout charges them
// differently.
func TestFinishRefineChargesTheOwnersItFinds(t *testing.T) {
	const p = 4
	mdl := machine.SP2()
	region := geom.Sphere{Center: geom.Vec3{X: 0.2, Y: 0.3, Z: 0.1}, Radius: 0.5}
	refine := func(start, finish partition.Assignment) (*Dist, AdaptTimings) {
		d, a, _ := fixture(t, p)
		d.SetOwners(start)
		a.MarkRegion(region, adapt.MarkRefine)
		r := d.CloseRefine(a, mdl)
		d.SetOwners(finish)
		_, tm := d.FinishRefine(&r)
		return d, tm
	}
	d0, _, _ := fixture(t, p)
	before := d0.Owners()
	after := make(partition.Assignment, len(before)) // the trees dealt round robin
	for v := range after {
		after[v] = int32(v % p)
	}
	moved, tm := refine(before, after)
	whole, want := refine(after, after)
	stayed, old := refine(before, before)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(a, b) }
	if !near(tm.Execute, want.Execute) || !near(tm.Classify, want.Classify) {
		t.Errorf("finished on the new owners: execute %.9g classify %.9g, a pass on them %.9g %.9g",
			tm.Execute, tm.Classify, want.Execute, want.Classify)
	}
	if near(tm.Execute, old.Execute) {
		t.Errorf("execute %.9g on either ownership: the fixture does not tell them apart", tm.Execute)
	}
	for _, d := range []*Dist{whole, stayed} {
		if len(d.M.Elems) != len(moved.M.Elems) || d.M.NumActiveElems() != moved.M.NumActiveElems() {
			t.Errorf("meshes differ: %d/%d elements against %d/%d",
				len(d.M.Elems), d.M.NumActiveElems(), len(moved.M.Elems), moved.M.NumActiveElems())
		}
	}
}
