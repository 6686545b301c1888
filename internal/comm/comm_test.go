package comm

import (
	"slices"
	"strings"
	"testing"
	"time"

	"plum/internal/fault"
)

func TestPingPong(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			if !c.Send(1, []int64{42, 43}) {
				t.Error("rank 0's send failed without a fault hook")
			}
			d, ok := c.Recv(1)
			if !ok || len(d) != 1 || d[0] != 99 {
				t.Errorf("rank 0 got %v (ok %v)", d, ok)
			}
		} else {
			d, ok := c.Recv(0)
			if !ok || len(d) != 2 || d[0] != 42 || d[1] != 43 {
				t.Errorf("rank 1 got %v (ok %v)", d, ok)
			}
			c.Send(0, []int64{99})
		}
	})
}

func TestSendIsolation(t *testing.T) {
	// The receiver must get a copy; mutating the sent slice afterwards
	// must not corrupt the message.
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []int64{5}
			c.Send(1, buf)
			buf[0] = 666
		} else {
			d, _ := c.Recv(0)
			if d[0] != 5 {
				t.Errorf("message aliased sender buffer: %d", d[0])
			}
		}
	})
}

func TestGather(t *testing.T) {
	p := 4
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		out := c.Gather(2, []int64{int64(c.Rank())})
		if c.Rank() == 2 {
			for r := 0; r < p; r++ {
				if out[r][0] != int64(r) {
					t.Errorf("gather: out[%d] = %v", r, out[r])
				}
			}
		} else if out != nil {
			t.Errorf("non-root rank %d got %v", c.Rank(), out)
		}
	})
}

func TestRunReturnsPanicAsError(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 panicked: boom") {
		t.Fatalf("Run error = %v", err)
	}
	if !w.Poisoned() {
		t.Error("world not poisoned after rank panic")
	}
	if err := w.Run(func(c *Comm) {}); err == nil {
		t.Error("poisoned world accepted another Run")
	}
}

func TestRunUnblocksDeadlockedRanks(t *testing.T) {
	// One rank dies while the others are blocked in Recv, on the dying
	// rank and on a live one; the poison must wake all of them and the
	// error must name only rank 0.
	w := NewWorld(4)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) {
			switch c.Rank() {
			case 0:
				panic("rank 0 dies")
			case 1:
				c.Recv(0) // never sent
			default:
				c.Recv(1) // never sent
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 0 panicked") {
			t.Fatalf("Run error = %v", err)
		}
		if strings.Contains(err.Error(), "rank 1") || strings.Contains(err.Error(), "rank 2") {
			t.Errorf("collateral unwinds leaked into error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still deadlocked after a rank panic")
	}
}

// TestRunAllocsIndependentOfP pins that a Run reuses the world's per-rank
// scratch: the remap runs one Run per window, so a per-rank allocation
// here would multiply by P and by the window count.
func TestRunAllocsIndependentOfP(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	for _, p := range []int{1, 1024} {
		w := NewWorld(p)
		allocs := testing.AllocsPerRun(20, func() {
			if err := w.Run(func(*Comm) {}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("P=%d: Run made %v allocations, want at most 2 at any P", p, allocs)
		}
	}
}

// TestRunSendsAllocsIndependentOfN pins the frame slab: a Run whose n
// messages fit the reservation allocates the slab and nothing per
// message, so the count does not grow with n.
func TestRunSendsAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	payload := make([]int64, 8)
	for _, n := range []int{1, 1000} {
		w := NewWorld(2)
		allocs := testing.AllocsPerRun(20, func() {
			w.Reserve(n, int64(n*len(payload)))
			if err := w.Run(func(c *Comm) {
				for range n {
					if c.Rank() == 0 {
						c.Send(1, payload)
					} else if _, ok := c.Recv(0); !ok {
						panic("lost a fault-free message")
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("n=%d: a Run with n sends made %v allocations, want at most 3 at any n", n, allocs)
		}
	}
}

// TestDrainedMailboxHoldsNoPayload pins that a received message leaves no
// reference behind: every slot of a drained queue's backing array is
// zero, so a world kept across exchanges pins no frame — and Reset clears
// what the receivers left, such as duplicates that arrived after their
// message was taken.
func TestDrainedMailboxHoldsNoPayload(t *testing.T) {
	held := func(w *World) int {
		n := 0
		for i := range w.boxes {
			for _, m := range w.boxes[i].q[:cap(w.boxes[i].q)] {
				if m.data != nil {
					n++
				}
			}
		}
		return n
	}
	w := NewWorld(3)
	if err := w.Run(func(c *Comm) {
		if c.Rank() > 0 {
			// Ranks 1 and 2 each send three frames to rank 0, which takes
			// them out of arrival order: all of rank 2's first.
			for k := range 3 {
				c.Send(0, []int64{int64(c.Rank()), int64(k)})
			}
			return
		}
		for _, src := range []int{2, 2, 2, 1, 1, 1} {
			if _, ok := c.Recv(src); !ok {
				panic("lost a fault-free message")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := held(w); n != 0 {
		t.Errorf("drained mailboxes still hold %d frames", n)
	}

	plan := &fault.Plan{Seed: 6, Rate: 1, Kinds: []fault.Kind{fault.Duplicate}}
	w.SetFaults(plan.Hook(fault.StageRemap, 0), 3)
	if err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, []int64{7})
		} else if c.Rank() == 0 {
			c.Recv(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if held(w) == 0 {
		t.Fatal("the duplicate plan left no stale frame behind; the Reset check below is vacuous")
	}
	w.Reset()
	if n := held(w); n != 0 {
		t.Errorf("Reset left %d frames in the mailboxes", n)
	}
}

// TestReservedFramesIntact has every rank send to every other at once, out
// of one reserved slab too small for the last frames: each message must
// arrive as sent, whether its frame was cut from the slab or allocated
// past it. Under -race it also checks the concurrent slab cuts.
func TestReservedFramesIntact(t *testing.T) {
	const p, words = 8, 5
	w := NewWorld(p)
	for try := range 3 {
		w.Reserve(p*(p-1)-3, p*(p-1)*words) // three frames short
		if err := w.Run(func(c *Comm) {
			msg := func(src, dst int) []int64 {
				out := make([]int64, words)
				for k := range out {
					out[k] = int64(try*1000 + src*100 + dst*10 + k)
				}
				return out
			}
			for dst := range p {
				if dst != c.Rank() {
					c.Send(dst, msg(c.Rank(), dst))
				}
			}
			for src := range p {
				if src == c.Rank() {
					continue
				}
				got, ok := c.Recv(src)
				if want := msg(src, c.Rank()); !ok || !slices.Equal(got, want) {
					t.Errorf("try %d: %d->%d delivered %v (ok %v), want %v", try, src, c.Rank(), got, ok, want)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}
