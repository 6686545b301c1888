// Package plum's root benchmarks are the kernel micro-benchmarks no
// bench/ workload isolates; whole-cycle and per-layer measurement lives in
// bench/ (see bench/README.md). Run with:
//
//	go test -run '^$' -bench . -benchmem ./...
package plum

import (
	"fmt"
	"runtime"
	"testing"

	"plum/internal/dual"
	"plum/internal/experiments"
	"plum/internal/sfc"
)

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
