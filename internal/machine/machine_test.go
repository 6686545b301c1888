package machine

import "testing"

func TestSP2Constants(t *testing.T) {
	m := SP2()
	if m.Tlat <= 0 || m.Tsetup <= 0 || m.ElemWords <= 0 {
		t.Fatalf("degenerate model: %+v", m)
	}
	// Message setup must dominate tiny messages; volume must dominate
	// large ones.
	small := m.MsgTime(1)
	large := m.MsgTime(1 << 20)
	if small < m.Tsetup || small > 2*m.Tsetup {
		t.Errorf("small message time %g vs setup %g", small, m.Tsetup)
	}
	if large < float64(1<<20)*m.Tlat {
		t.Errorf("large message time %g ignores volume", large)
	}
}

// TestRedistCost pins the paper's redistribution formula, C·M·Tlat +
// N·Tsetup (the balance report's CostPaper), on hand-computed cases: one in exact binary fractions, and
// the SP2 constants (1000 elements of 50 words at 0.25 µs plus 12 setups
// of 40 µs = 12.5 ms + 0.48 ms).
func TestRedistCost(t *testing.T) {
	m := Model{Tlat: 0.5, Tsetup: 4, ElemWords: 3}
	if got := m.RedistCost(10, 2); got != 23 {
		t.Errorf("RedistCost(10, 2) = %g, want 10·3·0.5 + 2·4 = 23", got)
	}
	if got := SP2().RedistCost(1000, 12); got < 0.01298-1e-15 || got > 0.01298+1e-15 {
		t.Errorf("SP2 RedistCost(1000, 12) = %.17g, want 0.01298", got)
	}
}

// TestRetryTime pins the one retry price on exact binary fractions: every
// resend repays MsgTime(words), every backoff unit RetryBackoff, and a
// message that needed neither costs exactly zero.
func TestRetryTime(t *testing.T) {
	m := Model{Tsetup: 2, Tlat: 0.25, RetryBackoff: 8}
	for _, c := range []struct {
		resends, backoff, words int64
		want                    float64
	}{
		{0, 0, 40, 0},
		{3, 0, 4, 9},  // 3·(2 + 4·0.25)
		{0, 5, 4, 40}, // 5·8
		{2, 3, 8, 32}, // 2·(2 + 8·0.25) + 3·8
	} {
		if got := m.RetryTime(c.resends, c.backoff, c.words); got != c.want {
			t.Errorf("RetryTime(%d, %d, %d) = %g, want %g", c.resends, c.backoff, c.words, got, c.want)
		}
	}
}

func TestMemCompSplit(t *testing.T) {
	m := SP2()
	if m.CompOp <= 0 || m.MemOp <= 0 {
		t.Fatalf("degenerate balance-op rates: comp=%g mem=%g", m.CompOp, m.MemOp)
	}
	// The split's premise: pointer-chasing scatter ops cost more than
	// cache-streaming arithmetic on 1996-class memory systems, and both
	// bracket the old blended 0.04 µs AlgOp they replaced.
	if m.MemOp <= m.CompOp {
		t.Errorf("MemOp %g not slower than CompOp %g", m.MemOp, m.CompOp)
	}
	if m.CompOp > 0.04e-6 || m.MemOp < 0.04e-6 {
		t.Errorf("split [%g, %g] does not bracket the old AlgOp", m.CompOp, m.MemOp)
	}
}

func TestClockSuperstep(t *testing.T) {
	c := NewClock(3)
	if c.P() != 3 {
		t.Fatal("P")
	}
	c.Add(0, 5)
	c.Add(1, 2)
	if c.Elapsed() != 5 {
		t.Errorf("Elapsed = %g", c.Elapsed())
	}
	c.Barrier()
	for r := 0; r < 3; r++ {
		if c.Rank(r) != 5 {
			t.Errorf("rank %d at %g after barrier", r, c.Rank(r))
		}
	}
	c.Add(2, 1)
	if c.Elapsed() != 6 {
		t.Errorf("Elapsed after more work = %g", c.Elapsed())
	}
}

// TestClockAddCounts pins the per-rank charge to one Add per rank of the
// count times the unit, rounded the same way.
func TestClockAddCounts(t *testing.T) {
	a, b := NewClock(3), NewClock(3)
	counts := []int64{7, 0, 3}
	for r, n := range counts {
		a.Add(r, 0.1)
		a.Add(r, float64(n)*1.3e-7)
		b.Add(r, 0.1)
	}
	b.AddCounts(counts, 1.3e-7)
	for r := range counts {
		if a.Rank(r) != b.Rank(r) {
			t.Errorf("rank %d: AddCounts %g, Add %g", r, b.Rank(r), a.Rank(r))
		}
	}
}

func TestClockZero(t *testing.T) {
	c := NewClock(2)
	if c.Elapsed() != 0 {
		t.Error("fresh clock nonzero")
	}
	c.Barrier()
	if c.Elapsed() != 0 {
		t.Error("barrier on idle clock advanced time")
	}
}

func TestClockWaitAndReset(t *testing.T) {
	c := NewClock(2)
	c.Add(0, 3)
	c.Wait(1, 2)
	c.Wait(0, 1) // already past it
	if c.Rank(0) != 3 || c.Rank(1) != 2 {
		t.Errorf("after waits: ranks at %g, %g, want 3, 2", c.Rank(0), c.Rank(1))
	}
	c.Reset(3)
	if c.P() != 3 || c.Elapsed() != 0 {
		t.Errorf("reset to 3 ranks: P %d, elapsed %g", c.P(), c.Elapsed())
	}
	c.Add(2, 1)
	c.Reset(1)
	if c.P() != 1 || c.Elapsed() != 0 {
		t.Errorf("reset to 1 rank: P %d, elapsed %g", c.P(), c.Elapsed())
	}
}
