// Package plum's root benchmarks are the kernel micro-benchmarks no
// bench/ workload isolates; whole-cycle and per-layer measurement lives in
// bench/ (see bench/README.md). Run with:
//
//	go test -run '^$' -bench . -benchmem ./...
package plum

import (
	"math"
	"runtime"
	"testing"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/dual"
	"plum/internal/experiments"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/meshgen"
	"plum/internal/par"
	"plum/internal/partition"
)

// BenchmarkDualBuild measures the dual-graph build of the 61k-tet rotor:
// face matching, centroids and the initial weights.
func BenchmarkDualBuild(b *testing.B) {
	m := experiments.BaseMesh()
	for b.Loop() {
		if g := dual.Build(m); g.N == 0 {
			b.Fatal("empty dual graph")
		}
	}
}

// BenchmarkMultilevel measures one paper-default multilevel partition of
// the rotor's dual graph at k = 64: coarsening, the level-set bisection of
// the coarsest graph, and the projection with FM refinement per level.
func BenchmarkMultilevel(b *testing.B) {
	g := dual.Build(experiments.BaseMesh())
	b.ReportAllocs()
	for b.Loop() {
		if asg, _ := partition.PartitionCounted(g, 64, partition.MethodMultilevel, partition.Options{}); len(asg) != g.N {
			b.Fatal("bad assignment")
		}
	}
}

// BenchmarkRebalance measures multilevel's rebalance of the rotor at
// k = 64, the pass Cycle runs on the paper-default method: the initial
// cut's owners, after two refinements of the 5 % mid-arc sphere, moved by
// diffusion and boundary FM on one Repartitioner's reused scratch.
// BenchmarkMultilevel times the from-scratch chain that core.New runs.
func BenchmarkRebalance(b *testing.B) {
	const k = 64
	m := experiments.BaseMesh()
	g := dual.Build(m)
	r := partition.NewRepartitioner(g, partition.MethodMultilevel, partition.Options{})
	owners := r.Initial(k)
	a := adapt.New(m)
	for range 2 {
		a.MarkRegion(midArcSphere(m), adapt.MarkRefine)
		a.Refine()
	}
	g.UpdateWeights(m)
	mdl := machine.SP2()
	b.ReportAllocs()
	for b.Loop() {
		if _, ops, _ := r.Repartition(k, owners, mdl); ops.Mem == 0 {
			b.Fatal("nothing rebalanced")
		}
	}
}

// BenchmarkBalancePass measures one warm balance pass of the rotor at
// P = 64 under the paper-default multilevel, the pass the rotor-repart
// workload runs every cycle: after two refinements of the 5 % mid-arc
// sphere, the framework's owners are reset to the initial partition before
// each pass, so every pass rebalances them, builds the similarity matrix,
// maps, prices and executes the same remap on the scratch the pass before
// it sized. One pass off the clock sizes it first. It reports the
// allocations and bytes per pass, which a warm pass keeps at zero, and the
// elements each pass moves.
func BenchmarkBalancePass(b *testing.B) {
	m := experiments.BaseMesh()
	f, err := core.New(m, nil, core.DefaultConfig(64))
	if err != nil {
		b.Fatal(err)
	}
	owners := f.D.Owners()
	for range 2 {
		f.A.MarkRegion(midArcSphere(m), adapt.MarkRefine)
		f.A.Refine()
	}
	var moved int64
	pass := func() {
		f.D.SetOwners(owners)
		rep, err := f.Balance()
		if err != nil || !rep.Accepted {
			b.Fatalf("pass accepted=%v err=%v: the fixture must remap", rep.Accepted, err)
		}
		moved = rep.Remap.Moved
	}
	pass()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	passes := 0
	for b.Loop() {
		pass()
		passes++
	}
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(passes), "allocs/pass")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(passes), "B/pass")
	b.ReportMetric(float64(moved), "moved-elems/pass")
}

// midArcSphere is the sphere holding 5 % of the rotor's edge midpoints at
// the mid-arc point.
func midArcSphere(m *mesh.Mesh) geom.Region {
	rp := meshgen.DefaultRotor()
	r, th := (rp.R0+rp.R1)/2, rp.Sweep/2
	return adapt.SphereForFraction(m, geom.Vec3{X: r * math.Cos(th), Y: r * math.Sin(th)}, 0.05)
}

// BenchmarkParallelRefine measures one distributed refinement pass of the
// rotor at P = 2048 (hilbert), the pass the highp-reassign workload spends
// its refinement time in: the sphere holding 5 % of the edge midpoints at
// the mid-arc point is marked, then ParallelRefine runs the marking
// census, the propagation, the kernel and the shared-edge classification.
// Cloning the mesh and marking stay off the clock.
func BenchmarkParallelRefine(b *testing.B) {
	const p = 2048
	base := experiments.BaseMesh()
	asg := partition.Partition(dual.Build(base), p, partition.MethodHilbertSFC)
	region := midArcSphere(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := base.Clone()
		d, a := par.NewDist(m, p, asg), adapt.New(m)
		a.MarkRegion(region, adapt.MarkRefine)
		b.StartTimer()
		if st, _ := d.ParallelRefine(a, machine.SP2()); st.NewElems == 0 {
			b.Fatal("nothing refined")
		}
	}
}

// BenchmarkSFCBuild measures one curve-order build of the rotor's dual
// graph plus one cut of it at k = 8, per curve: the key pass, the sort
// and the weighted cut, as a curve method's Repartitioner.Initial runs
// them.
func BenchmarkSFCBuild(b *testing.B) {
	g := dual.Build(experiments.BaseMesh())
	for _, m := range []partition.Method{partition.MethodMortonSFC, partition.MethodHilbertSFC} {
		b.Run(m.String(), func(b *testing.B) {
			for b.Loop() {
				if asg := partition.NewRepartitioner(g, m, partition.Options{}).Initial(8); len(asg) != g.N {
					b.Fatal("bad assignment")
				}
			}
		})
	}
}

// BenchmarkMeshClone measures one Clone of the rotor mesh: its records hold
// no pointers, so it is a copy of the element-forest slab and of every page
// of the other slabs, the Tets among them, and the list blocks.
func BenchmarkMeshClone(b *testing.B) {
	m := experiments.BaseMesh()
	b.ReportAllocs()
	for b.Loop() {
		if c := m.Clone(); len(c.Elems) != len(m.Elems) {
			b.Fatal("short clone")
		}
	}
}

// BenchmarkCompact measures one Compact of the rotor after the mid-arc
// sphere was refined and then coarsened, which leaves dead objects in
// every slab: the slab moves, the list re-carve and the id rewrite.
// Cloning the uncompacted mesh stays off the clock.
func BenchmarkCompact(b *testing.B) {
	base := experiments.BaseMesh()
	a := adapt.New(base)
	region := midArcSphere(base)
	a.MarkRegion(region, adapt.MarkRefine)
	a.Refine()
	a.MarkRegion(region, adapt.MarkCoarsen)
	a.Coarsen()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := base.Clone()
		b.StartTimer()
		if cm := m.Compact(); cm.Elem == nil {
			b.Fatal("nothing to compact")
		}
	}
}
