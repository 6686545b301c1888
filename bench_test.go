// Package plum's root benchmarks are the kernel micro-benchmarks no
// bench/ workload isolates; whole-cycle and per-layer measurement lives in
// bench/ (see bench/README.md). Run with:
//
//	go test -run '^$' -bench . -benchmem ./...
package plum

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/experiments"
	"plum/internal/geom"
	"plum/internal/machine"
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
	rp := meshgen.DefaultRotor()
	r, th := (rp.R0+rp.R1)/2, rp.Sweep/2
	region := adapt.SphereForFraction(base, geom.Vec3{X: r * math.Cos(th), Y: r * math.Sin(th)}, 0.05)
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

// BenchmarkSFCKeys measures raw key throughput of the two curve kernels,
// serial versus the GOMAXPROCS worker pool (identical output either way).
func BenchmarkSFCKeys(b *testing.B) {
	m := experiments.BaseMesh()
	g := dual.Build(m)
	for _, c := range []sfc.Curve{sfc.Morton, sfc.Hilbert} {
		for _, bw := range benchWorkers() {
			b.Run(fmt.Sprintf("%s/workers=%d", c, bw), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					keys := sfc.KeysWorkers(c, g.Centroid, bw)
					if len(keys) != g.N {
						b.Fatal("bad keys")
					}
				}
			})
		}
	}
}

// benchWorkers returns the worker counts the parallel-pipeline benches
// compare: the serial baseline and the machine's full parallelism (when
// they differ).
func benchWorkers() []int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return []int{1, p}
	}
	return []int{1}
}
