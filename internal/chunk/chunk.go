// Package chunk is the shared chunked-scan machinery behind every
// parallel O(n) loop on the host: the SPL and classification scans, and the propagation engine's frontier sweeps
// (plus the band-FM refiner no partitioner runs). The worker count bounds
// goroutines only: no op count depends on it.
//
// Determinism contract: chunk boundaries depend only on n and the
// resolved worker count — never on scheduling — so callers that reduce
// per-chunk partial results merge them in a fixed order and produce
// identical output at every worker count.
package chunk

import (
	"runtime"
	"sync"
)

// Workers resolves a worker-count knob: values ≤ 0 mean "use
// runtime.GOMAXPROCS(0)".
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// EffectiveWorkers resolves the worker count a chunked scan actually runs
// with: the knob via Workers, clamped to 1 below the caller's serial
// cutoff and to n above it. The refine, par, and propagate subsystems
// wrap this with their own cutoffs.
func EffectiveWorkers(n, workers, cutoff int) int {
	w := Workers(workers)
	if n < cutoff || w < 1 {
		return 1
	}
	if w > n {
		w = n
	}
	return w
}

// Count returns the number of contiguous chunks For will split [0, n)
// into for the given worker knob: min(Workers(workers), n), at least 1
// when n > 0.
func Count(n, workers int) int {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For splits [0, n) into Count(n, workers) contiguous near-equal chunks
// and runs fn(chunk, lo, hi) for each, concurrently when there is more
// than one. Chunk boundaries depend only on n and the resolved worker
// count, so callers that reduce per-chunk results merge them in a
// deterministic order.
func For(n, workers int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Count(n, workers)
	if w == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for t := 0; t < w; t++ {
		go func(t int) {
			defer wg.Done()
			fn(t, t*n/w, (t+1)*n/w)
		}(t)
	}
	wg.Wait()
}

// Gather runs fn over each chunk of [0, n) and concatenates the
// per-chunk buckets in chunk order. Chunks are contiguous, so the output
// order is the input order of whatever fn selects — canonical at every
// worker count.
func Gather[T any](n, workers int, fn func(lo, hi int) []T) []T {
	parts := make([][]T, Count(n, workers))
	For(n, workers, func(c, lo, hi int) { parts[c] = fn(lo, hi) })
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// GatherCounts runs fill over each chunk of [0, n) with a private
// width-sized accumulator and merges the partials in chunk order.
// Integer addition is exact, so the sums are identical at every worker
// count.
func GatherCounts(n, workers, width int, fill func(lo, hi int, cnt []int64)) []int64 {
	parts := make([][]int64, Count(n, workers))
	For(n, workers, func(c, lo, hi int) {
		cnt := make([]int64, width)
		fill(lo, hi, cnt)
		parts[c] = cnt
	})
	out := make([]int64, width)
	for _, p := range parts {
		for i, v := range p {
			out[i] += v
		}
	}
	return out
}
