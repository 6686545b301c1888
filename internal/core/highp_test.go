package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/obs"
	"plum/internal/partition"
)

// checkDistribution verifies the per-cycle invariants of a balanced
// framework: every dual vertex is owned by a rank in range, and the
// per-rank loads add up to the active elements.
func checkDistribution(t *testing.T, f *Framework) {
	t.Helper()
	for v, o := range f.D.Owners() {
		if o < 0 || int(o) >= f.Cfg.P {
			t.Fatalf("dual vertex %d owned by rank %d, outside [0, %d)", v, o, f.Cfg.P)
		}
	}
	var total int64
	for _, w := range f.Loads() {
		total += w
	}
	if want := int64(f.M.NumActiveElems()); total != want {
		t.Fatalf("rank loads sum to %d, mesh has %d active elements", total, want)
	}
}

// TestCycleHighP runs the whole cycle at P = 2048 — a few elements per
// rank, thousands of tiny flows — on a toy rotor: the balancer must get
// to execute a remap (its own mapper and executor no longer price it out),
// keep the distribution sound, and produce identical owners, reports and
// trace bytes at Workers 1 and 3.
func TestCycleHighP(t *testing.T) {
	const p = 2048
	rp := meshgen.DefaultRotor()
	rp.NR, rp.NTheta, rp.NZ = 10, 11, 11 // 7260 elements
	centre := geom.Vec3{X: 1.4 * math.Cos(rp.Sweep/2), Y: 1.4 * math.Sin(rp.Sweep/2)}
	type result struct {
		owners  []int32
		reports []BalanceReport
		trace   []byte
	}
	run := func(workers int) result {
		cfg := DefaultConfig(p)
		cfg.Method = partition.MethodHilbertSFC
		cfg.Workers = workers
		cfg.Trace = obs.NewTrace()
		f, err := New(meshgen.RotorDisk(rp), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var res result
		for c := 0; c < 3; c++ {
			rep, err := f.Cycle(func(a *adapt.Adaptor) {
				a.MarkRegion(adapt.SphereForFraction(a.M, centre, 0.05), adapt.MarkRefine)
			})
			if err != nil {
				t.Fatal(err)
			}
			checkDistribution(t, f)
			res.reports = append(res.reports, rep.Balance)
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, cfg.Trace); err != nil {
			t.Fatal(err)
		}
		res.owners, res.trace = f.D.Owners(), buf.Bytes()
		return res
	}
	ref := run(1)
	accepted := 0
	for c, b := range ref.reports {
		t.Logf("cycle %d: imbalance %.2f -> %.2f accepted=%v moved %d in %d sets, reassign ops %d",
			c, b.ImbalanceBefore, b.ImbalanceAfter, b.Accepted, b.Remap.Moved, b.Remap.Sets, b.ReassignOps)
		if b.Accepted {
			accepted++
			if b.Remap.Moved != b.MoveC || b.Remap.Sets != b.MoveN || b.ImbalanceAfter >= b.ImbalanceBefore {
				t.Errorf("cycle %d: executed remap disagrees with its proposal: %+v", c, b)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no remap accepted at P = 2048: the balancer priced itself out")
	}
	got := run(3)
	if !reflect.DeepEqual(got.owners, ref.owners) {
		t.Error("owners differ between Workers 1 and 3")
	}
	for c := range ref.reports {
		if a, b := workerInvariant(got.reports[c]), workerInvariant(ref.reports[c]); !reflect.DeepEqual(a, b) {
			t.Errorf("cycle %d: BalanceReport differs between Workers 1 and 3:\n got %+v\nwant %+v", c, a, b)
		}
	}
	if !bytes.Equal(got.trace, ref.trace) {
		t.Error("trace bytes differ between Workers 1 and 3")
	}
}

// workerInvariant strips a BalanceReport of the figures that depend on the
// worker count by design: the critical-path op shares and the modeled
// times and cost terms derived from them.
func workerInvariant(b BalanceReport) BalanceReport {
	b.RepartitionCritOps, b.RefineCritOps, b.RemapCritOps, b.AdaptCritOps = 0, 0, 0, 0
	b.RepartitionTime, b.RepartitionCompTime, b.RepartitionMemTime = 0, 0, 0
	b.RemapExecTime, b.AdaptExecTime = 0, 0
	b.Cost, b.CostFull, b.OverlapTime = 0, 0, 0
	b.Remap.Ops.Crit, b.Remap.Ops.MemCrit = 0, 0
	return b
}

// TestCycleMoreRanksThanVertices balances 3072 dual vertices over 5000
// ranks: most ranks own nothing, every similarity row is a cell or two,
// and the mapper must cost what those cells cost — not the 25 M cells of
// the matrix they sit in.
func TestCycleMoreRanksThanVertices(t *testing.T) {
	m := meshgen.Box(8, 8, 8, geom.Vec3{X: 1, Y: 1, Z: 1})
	cfg := DefaultConfig(5000)
	cfg.Method = partition.MethodHilbertSFC
	f, err := New(m, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		rep, err := f.Cycle(func(a *adapt.Adaptor) {
			a.MarkRegion(geom.Sphere{Center: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Radius: 0.3}, adapt.MarkRefine)
		})
		if err != nil {
			t.Fatal(err)
		}
		checkDistribution(t, f)
		b := rep.Balance
		t.Logf("cycle %d: imbalance %.2f -> %.2f accepted=%v reassign ops %d (%.3g s)",
			c, b.ImbalanceBefore, b.ImbalanceAfter, b.Accepted, b.ReassignOps, b.ReassignTime)
		if !b.Repartitioned {
			t.Fatalf("cycle %d: refinement left the mesh balanced; fixture is not exercising the mapper", c)
		}
		if b.ReassignOps > 10_000_000 {
			t.Errorf("cycle %d: mapper counted %d ops for %d dual vertices", c, b.ReassignOps, f.G.N)
		}
	}
}
