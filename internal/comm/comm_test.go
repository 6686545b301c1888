package comm

import (
	"strings"
	"testing"
	"time"
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
