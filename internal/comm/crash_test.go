package comm

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestCrashReturnsCrashError(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			c.Crash()
		}
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run error = %v, want *CrashError", err)
	}
	if !reflect.DeepEqual(ce.Ranks, []int{2}) {
		t.Errorf("crashed ranks = %v, want [2]", ce.Ranks)
	}
	if strings.Contains(err.Error(), "panicked") {
		t.Errorf("crash misreported as panic: %v", err)
	}
	if !w.Poisoned() {
		t.Error("world not poisoned after crash")
	}
	if err := w.Run(func(c *Comm) {}); err == nil {
		t.Error("poisoned world accepted another Run")
	}
}

func TestCrashRanksSortedAndComplete(t *testing.T) {
	// Multiple simultaneous crashes: all dead ranks must be reported, in
	// ascending order, regardless of goroutine scheduling.
	w := NewWorld(8)
	err := w.Run(func(c *Comm) {
		if r := c.Rank(); r == 6 || r == 1 || r == 4 {
			c.Crash()
		}
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run error = %v, want *CrashError", err)
	}
	if !reflect.DeepEqual(ce.Ranks, []int{1, 4, 6}) {
		t.Errorf("crashed ranks = %v, want [1 4 6]", ce.Ranks)
	}
}

func TestCrashUnblocksSurvivors(t *testing.T) {
	// Survivors blocked in Recv must be woken by the poison,
	// and their collateral unwinds must not pollute the crash report.
	w := NewWorld(4)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) {
			switch c.Rank() {
			case 0:
				c.Crash()
			case 1:
				c.Recv(0, 42) // never sent
			default:
				c.Recv(AnySource, 43) // never sent
			}
		})
	}()
	select {
	case err := <-done:
		var ce *CrashError
		if !errors.As(err, &ce) || !reflect.DeepEqual(ce.Ranks, []int{0}) {
			t.Fatalf("Run error = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still deadlocked after a rank crash")
	}
}

func TestPanicOutranksCrash(t *testing.T) {
	// A genuine panic is a bug; it must win over a concurrent scripted
	// crash so the defect is never masked as a recoverable rank death.
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 1:
			c.Crash()
		case 3:
			panic("real bug")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 3 panicked: real bug") {
		t.Fatalf("Run error = %v, want the rank 3 panic", err)
	}
	var ce *CrashError
	if errors.As(err, &ce) {
		t.Errorf("panic misclassified as crash: %v", err)
	}
}

func TestPanicErrorCarriesStack(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("with trace")
		}
	})
	if err == nil {
		t.Fatal("no error from panicking rank")
	}
	msg := err.Error()
	if !strings.Contains(msg, "goroutine") || !strings.Contains(msg, "comm.") {
		t.Errorf("panic error lacks a stack trace:\n%s", msg)
	}
}

func TestDeadlineReturnsTimeoutError(t *testing.T) {
	w := NewWorld(2)
	w.SetDeadline(50 * time.Millisecond)
	hung := make(chan struct{})
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			<-hung // hang outside the runtime: only the watchdog can help
		}
	})
	close(hung)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("Run error = %v, want *TimeoutError", err)
	}
	if te.Deadline != 50*time.Millisecond {
		t.Errorf("TimeoutError deadline = %v", te.Deadline)
	}
	if !w.Poisoned() {
		t.Error("world not poisoned after timeout")
	}
}

func TestDeadlineZeroDisablesWatchdog(t *testing.T) {
	w := NewWorld(2)
	w.SetDeadline(0)
	if err := w.Run(func(c *Comm) { c.Gather(0, []int64{1}) }); err != nil {
		t.Fatalf("unexpired watchdog broke a clean run: %v", err)
	}
}

func TestDeadlineGenerousPassesCleanRun(t *testing.T) {
	w := NewWorld(4)
	w.SetDeadline(time.Minute)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []int64{1})
		} else if c.Rank() == 1 {
			c.Recv(0, 0)
		}
		c.Gather(0, nil)
	})
	if err != nil {
		t.Fatalf("run under a generous deadline failed: %v", err)
	}
}
