// Package plum's root benchmarks are the kernel micro-benchmarks no
// bench/ workload isolates; whole-cycle and per-layer measurement lives in
// bench/ (see bench/README.md). Run with:
//
//	go test -run '^$' -bench . -benchmem ./...
package plum

import (
	"math"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/experiments"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/meshgen"
	"plum/internal/par"
	"plum/internal/partition"
	"plum/internal/sfc"
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
// the rotor's dual graph at k = 64: coarsening, the spectral solve of the
// coarsest graph, and the projection with FM refinement per level.
func BenchmarkMultilevel(b *testing.B) {
	g := dual.Build(experiments.BaseMesh())
	for b.Loop() {
		if asg, _ := partition.PartitionCounted(g, 64, partition.MethodMultilevel, partition.Options{}); len(asg) != g.N {
			b.Fatal("bad assignment")
		}
	}
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
// and the weighted cut, as an SFC method's initial partition runs them
// before its boundary refinement.
func BenchmarkSFCBuild(b *testing.B) {
	g := dual.Build(experiments.BaseMesh())
	for _, c := range []sfc.Curve{sfc.Morton, sfc.Hilbert} {
		b.Run(c.String(), func(b *testing.B) {
			for b.Loop() {
				if asg := partition.NewSFCWorkers(g, c, 2).Repartition(g, 8); len(asg) != g.N {
					b.Fatal("bad assignment")
				}
			}
		})
	}
}

// BenchmarkMeshClone measures one Clone of the rotor mesh: its records hold
// no pointers, so it is a copy of each slab and list block.
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
