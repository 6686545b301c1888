// Package ckpt snapshots the recoverable state of a balance cycle so a
// rank crash mid-remap can be rolled back to a known-good point and
// repaired by a survivor remap. A Checkpoint keeps exactly one capture —
// the state as of the last Capture call — and patches it in place
// against the new state (delta/copy-on-write): a steady cycle whose
// ownership and weights barely move writes only the changed words, so
// checkpointing costs near zero when nothing is going wrong. Restore
// hands back deep copies, so a caller that mutates the restored slices
// never corrupts the capture.
//
// The package is deliberately dumb: no file I/O, no concurrency, no
// knowledge of meshes or ranks. The core framework decides what state is
// recoverable (ownership, element weights, the rollback streak) and when
// to capture it; ckpt only guarantees the restore is byte-exact.
package ckpt

// State is the recoverable snapshot of one balance cycle, taken before
// the cycle starts mutating ownership. Slices are element-indexed and
// owned by the caller at Capture time (copied in) and by the caller
// again at Restore time (copied out).
type State struct {
	// Cycle is the balance cycle the snapshot belongs to.
	Cycle int
	// Streak is the consecutive-rollback streak at capture time.
	Streak int
	// Owners is the dual vertex → owning-rank map.
	Owners []int32
	// Weights are the per-dual-vertex computational weights (Wcomp).
	Weights []int64
}

// Stats counts the checkpoint traffic so the near-zero steady-state cost
// claim is measurable: FullWords are words written by whole-slice clones
// (first capture, or a length change after adaption), DeltaWords words
// written by in-place patching of changed entries only.
type Stats struct {
	Captures   int
	Restores   int
	FullWords  int64
	DeltaWords int64
}

// Checkpoint holds the latest captured State.
type Checkpoint struct {
	have  bool
	state State
	stats Stats
}

// New returns an empty checkpoint.
func New() *Checkpoint { return &Checkpoint{} }

// Capture snapshots s, replacing any earlier capture. The slices are
// copied, never aliased; when the new slices have the lengths of the
// previous capture, only entries that actually changed are written.
func (c *Checkpoint) Capture(s State) {
	c.stats.Captures++
	c.state.Cycle = s.Cycle
	c.state.Streak = s.Streak
	c.state.Owners, c.stats.FullWords, c.stats.DeltaWords =
		patchInt32(c.state.Owners, s.Owners, c.have, c.stats.FullWords, c.stats.DeltaWords)
	c.state.Weights, c.stats.FullWords, c.stats.DeltaWords =
		patchInt64(c.state.Weights, s.Weights, c.have, c.stats.FullWords, c.stats.DeltaWords)
	c.have = true
}

// Restore returns a deep copy of the captured state, or ok=false when
// nothing has been captured yet.
func (c *Checkpoint) Restore() (s State, ok bool) {
	if !c.have {
		return State{}, false
	}
	c.stats.Restores++
	return State{
		Cycle:   c.state.Cycle,
		Streak:  c.state.Streak,
		Owners:  append([]int32(nil), c.state.Owners...),
		Weights: append([]int64(nil), c.state.Weights...),
	}, true
}

// Stats returns the accumulated capture/restore counters.
func (c *Checkpoint) Stats() Stats { return c.stats }

// patchInt32 updates dst to equal src, cloning only when the shape
// changed (or on the first capture) and otherwise writing just the
// entries that differ. It returns the new buffer and updated counters.
func patchInt32(dst, src []int32, have bool, full, delta int64) ([]int32, int64, int64) {
	if !have || len(dst) != len(src) {
		return append(dst[:0:0], src...), full + int64(len(src)), delta
	}
	for i, v := range src {
		if dst[i] != v {
			dst[i] = v
			delta++
		}
	}
	return dst, full, delta
}

// patchInt64 is patchInt32 for 64-bit weight words.
func patchInt64(dst, src []int64, have bool, full, delta int64) ([]int64, int64, int64) {
	if !have || len(dst) != len(src) {
		return append(dst[:0:0], src...), full + int64(len(src)), delta
	}
	for i, v := range src {
		if dst[i] != v {
			dst[i] = v
			delta++
		}
	}
	return dst, full, delta
}
