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
			c.Send(1, 7, []int64{42, 43})
			d, src := c.Recv(1, 8)
			if src != 1 || len(d) != 1 || d[0] != 99 {
				t.Errorf("rank 0 got %v from %d", d, src)
			}
		} else {
			d, src := c.Recv(0, 7)
			if src != 0 || d[0] != 42 || d[1] != 43 {
				t.Errorf("rank 1 got %v from %d", d, src)
			}
			c.Send(0, 8, []int64{99})
		}
	})
}

func TestTagMatching(t *testing.T) {
	// Messages with different tags must not be confused even when sent
	// out of receive order.
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []int64{1})
			c.Send(1, 2, []int64{2})
		} else {
			d2, _ := c.Recv(0, 2)
			d1, _ := c.Recv(0, 1)
			if d1[0] != 1 || d2[0] != 2 {
				t.Errorf("tag matching broke: %v %v", d1, d2)
			}
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
			c.Send(1, 0, buf)
			buf[0] = 666
		} else {
			d, _ := c.Recv(0, 0)
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

func TestStatsCounters(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []int64{1, 2, 3})
		} else {
			c.Recv(0, 0)
		}
	})
	st := w.RankStats()
	if st[0].Msgs != 1 || st[0].Words != 3 {
		t.Errorf("rank 0 stats = %+v", st[0])
	}
	if st[1].Msgs != 0 {
		t.Errorf("rank 1 stats = %+v", st[1])
	}
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
	// One rank dies while the others are blocked in Recv, on a specific
	// source and on any; the poison must wake all of them and the error
	// must name only rank 0.
	w := NewWorld(4)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) {
			switch c.Rank() {
			case 0:
				panic("rank 0 dies")
			case 1:
				c.Recv(0, 42) // never sent
			default:
				c.Recv(AnySource, 43) // never sent
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

func TestAnySource(t *testing.T) {
	p := 4
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < p-1; i++ {
				d, src := c.Recv(AnySource, 3)
				if seen[src] {
					t.Errorf("duplicate source %d", src)
				}
				seen[src] = true
				if d[0] != int64(src) {
					t.Errorf("payload %d from %d", d[0], src)
				}
			}
		} else {
			c.Send(0, 3, []int64{int64(c.Rank())})
		}
	})
}
