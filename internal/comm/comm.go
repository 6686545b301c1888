// Package comm is the message-passing runtime that stands in for MPI: a
// World of P ranks executing SPMD functions on goroutines, one
// point-to-point pair (Send, Recv from a named source) and the one
// collective the finalization phase uses (Gather). All communication is
// by value over in-process queues — ranks share no mutable state,
// matching the distributed-memory discipline of the paper's C++/MPI
// implementation.
//
// Every message rides one framed transport (reliable.go): a sequence
// number, an FNV checksum and bounded retry under the deterministic fault
// hook installed via World.SetFaults. The machine model, not this
// package, prices the traffic. A rank that panics never hangs the other
// P−1 ranks: Run poisons the world, wakes every blocked Recv, and returns
// an aggregated error naming the failing ranks.
package comm

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plum/internal/fault"
)

// message is one in-flight frame.
type message struct {
	src  int
	data []int64
}

// poisonMark is the sentinel panic value used to unwind ranks that were
// blocked in Recv when another rank died. Run recognizes and
// filters it so the aggregated error names only the original failures.
type poisonMark struct{}

var poisonSentinel any = poisonMark{}

// crashMark is the panic value Comm.Crash unwinds with: a modeled rank
// death, not a program bug. Run separates it from genuine panics and
// reports it as a *CrashError so callers can run survivor recovery
// instead of treating the stage as corrupt.
type crashMark struct{ rank int }

// CrashError reports the modeled rank deaths that ended a Run. The
// surviving ranks were unwound cleanly at their next blocking point (the
// in-process analogue of detecting a dead peer at the next barrier); the
// stage's effects must be rolled back and its work redistributed onto
// the survivors.
type CrashError struct {
	// Ranks are the crashed ranks, sorted ascending.
	Ranks []int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("comm: rank crash: ranks %v died mid-stage", e.Ranks)
}

// TimeoutError reports that a Run exceeded the world's stage deadline:
// at least one rank was genuinely hung (not blocked in comm, where
// poisoning would have unwound it). The world is poisoned and its state
// is torn mid-stage; the caller must treat the stage as failed.
type TimeoutError struct {
	// Deadline is the wall-clock budget that expired.
	Deadline time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("comm: stage deadline %v exceeded: worker hung outside the communication layer", e.Deadline)
}

// mailbox is a rank's incoming queue, matched by source.
type mailbox struct {
	mu   sync.Mutex
	cond sync.Cond // on mu
	q    []message
	dead bool
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.q = append(mb.q, m)
	mb.cond.Signal()
	mb.mu.Unlock()
}

func (mb *mailbox) get(src int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if mb.dead {
			panic(poisonSentinel)
		}
		for i, m := range mb.q {
			if m.src == src {
				// Zero the vacated tail slot: a message left in the
				// backing array would pin its frame for as long as the
				// world lives.
				n := len(mb.q) - 1
				copy(mb.q[i:], mb.q[i+1:])
				mb.q[n] = message{}
				mb.q = mb.q[:n]
				return m
			}
		}
		mb.cond.Wait()
	}
}

// World is a communicator of P ranks. It holds O(P) state — a mailbox
// and the Run scratch per rank — plus, under a fault hook, one small
// record per rank pair that has actually exchanged a message; its cost
// follows the messages sent, not the P² pairs that could send one.
type World struct {
	p     int
	boxes []mailbox

	deadMu sync.Mutex
	dead   bool // set by poison(); guarded by deadMu

	// Transport state (reliable.go). The hook and budget are set between
	// Run calls. Per-pair state exists only under a hook, for the pairs
	// that have exchanged a message, created on first use: sends[src] is
	// touched by rank src's goroutine alone and recvs[dst] by rank dst's,
	// so no locking is needed.
	hook         func(src, dst, attempt int) fault.Kind
	maxAttempts  int
	deadline     time.Duration // wall-clock watchdog per Run; 0 = off
	sends, recvs [][]pairState

	// slab is the frame storage Reserve sized for the next Run, and
	// slabOff the words already cut from it; Run releases it on return.
	slab    []int64
	slabOff atomic.Int64

	// Per-Run scratch, allocated once by NewWorld so a Run costs no
	// per-rank allocation: the SPMD function of the current Run, one
	// goroutine entry per rank, each rank's handle, and what a rank that
	// panicked left behind. Runs are sequential, and a world whose Run
	// failed refuses the next one, so a rank abandoned by the watchdog
	// never shares these with a later Run.
	f      func(*Comm)
	fns    []func()
	comms  []Comm
	panics []any
	stacks [][]byte
	wg     sync.WaitGroup
}

// pairState is one rank's side of a (src, dst) pair under a fault hook,
// keyed by the peer: the sender's counters, or the receiver's sequence.
type pairState struct {
	peer    int32
	attempt int32 // sender: fault-hook consultations so far
	seq     int64 // sender: next sequence number; receiver: next expected
	resend  int64 // sender: extra physical frames sent
	backoff int64 // sender: Σ 2^try backoff units
}

// pairOf returns peer's entry in a rank's pair list, appended on first
// use. The pointer is good until the list's next append.
func pairOf(list *[]pairState, peer int) *pairState {
	for i := range *list {
		if int((*list)[i].peer) == peer {
			return &(*list)[i]
		}
	}
	*list = append(*list, pairState{peer: int32(peer)})
	return &(*list)[len(*list)-1]
}

// NewWorld creates a communicator with p ranks.
func NewWorld(p int) *World {
	w := &World{p: p, boxes: make([]mailbox, p),
		maxAttempts: 1,
		sends:       make([][]pairState, p),
		recvs:       make([][]pairState, p),
		fns:         make([]func(), p),
		comms:       make([]Comm, p),
		panics:      make([]any, p),
		stacks:      make([][]byte, p),
	}
	for r := range p {
		w.boxes[r].cond.L = &w.boxes[r].mu
		w.comms[r] = Comm{w: w, rank: r}
		w.fns[r] = func() { w.runRank(r) }
	}
	return w
}

// P returns the number of ranks.
func (w *World) P() int { return w.p }

// Reset readies the world for a new exchange, keeping what it has
// allocated: it empties every mailbox (stale duplicates a fault hook left
// behind included), drops the transport's per-pair state, uninstalls the
// fault hook and disarms the deadline — the state NewWorld(p) returns,
// except that a poisoned world stays poisoned. Like SetFaults it must be
// called between Run calls.
func (w *World) Reset() {
	for i := range w.boxes {
		mb := &w.boxes[i]
		clear(mb.q)
		mb.q = mb.q[:0]
	}
	for r := range w.sends {
		w.sends[r] = w.sends[r][:0]
		w.recvs[r] = w.recvs[r][:0]
	}
	w.hook, w.maxAttempts, w.deadline = nil, 1, 0
}

// Reserve sizes the next Run's frame storage for msgs messages carrying
// words payload words in all: their frames are cut from one slab, so the
// Run allocates once rather than once per message. Frames past the
// reservation — resends and duplicates under a fault hook — get their
// own. The world releases the slab when the Run returns; a payload Recv
// returned aliases it, so a rank that keeps one past the Run keeps the
// slab alive. Call between Run calls.
func (w *World) Reserve(msgs int, words int64) {
	w.slab = make([]int64, int64(msgs)*frameHdr+words)
	w.slabOff.Store(0)
}

// frame returns storage for one n-word frame: the next n words of the
// reserved slab, or a fresh buffer once the slab is spent.
func (w *World) frame(n int) []int64 {
	if end := w.slabOff.Add(int64(n)); end <= int64(len(w.slab)) {
		return w.slab[end-int64(n) : end : end]
	}
	return make([]int64, n)
}

// poison marks the world dead and wakes every rank blocked in Recv; they
// unwind with the poison sentinel instead of waiting forever.
func (w *World) poison() {
	w.deadMu.Lock()
	w.dead = true
	w.deadMu.Unlock()
	for i := range w.boxes {
		mb := &w.boxes[i]
		mb.mu.Lock()
		mb.dead = true
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// Poisoned reports whether a rank failure has killed this world.
func (w *World) Poisoned() bool {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	return w.dead
}

// SetDeadline arms a wall-clock watchdog on subsequent Run calls: a Run
// whose ranks have not all finished within d poisons the world and
// returns a *TimeoutError instead of waiting forever on a hung worker.
// Zero disables the watchdog. Like SetFaults it must be called between
// Run calls, not concurrently with one.
func (w *World) SetDeadline(d time.Duration) {
	if d < 0 {
		d = 0
	}
	w.deadline = d
}

// watchdogGrace is how long a timed-out Run waits after poisoning for
// the ranks to unwind before abandoning them. Ranks blocked in comm wake
// immediately; a rank hung in user code never will, and Run returns
// without it (the goroutine leaks, but the world is already dead).
const watchdogGrace = 100 * time.Millisecond

// Run executes f on every rank concurrently and returns when all ranks
// finish. A panic on any rank poisons the world — every other rank blocked
// in Recv unwinds instead of deadlocking — and Run returns an
// aggregated error naming the ranks that originally panicked, each with
// the stack trace captured at the panic site. Modeled rank deaths
// (Comm.Crash) are separated from genuine panics and reported as a
// *CrashError naming the dead ranks; if both occur, the genuine panics
// win. With a deadline armed (SetDeadline), a Run that outlives it
// returns a *TimeoutError. A poisoned world stays dead: later Run calls
// fail immediately.
func (w *World) Run(f func(c *Comm)) error {
	if w.Poisoned() {
		return fmt.Errorf("comm: world already poisoned by an earlier rank failure")
	}
	clear(w.panics)
	clear(w.stacks)
	w.f = f
	w.wg.Add(w.p)
	for r := range w.fns {
		go w.fns[r]()
	}
	if w.deadline > 0 {
		done := make(chan struct{})
		go func() { w.wg.Wait(); close(done) }()
		timer := time.NewTimer(w.deadline)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			// Deadline blown: at least one rank is hung. Poison so ranks
			// blocked in comm unwind, give them a grace period, then
			// report the timeout — the stage's state is torn either way.
			w.poison()
			grace := time.NewTimer(watchdogGrace)
			defer grace.Stop()
			select {
			case <-done:
			case <-grace.C:
			}
			return &TimeoutError{Deadline: w.deadline}
		}
	} else {
		w.wg.Wait()
	}
	// Drop what the finished Run referenced: a world kept across
	// exchanges must not pin the last exchange's function or frames.
	w.f, w.slab = nil, nil
	var parts []string
	var crashed []int
	for r, e := range w.panics {
		if e == nil || e == poisonSentinel {
			continue
		}
		if _, ok := e.(crashMark); ok {
			crashed = append(crashed, r)
			continue
		}
		parts = append(parts, fmt.Sprintf("rank %d panicked: %v\n%s", r, e, w.stacks[r]))
	}
	if parts != nil {
		return fmt.Errorf("comm: %s", strings.Join(parts, "; "))
	}
	if crashed != nil {
		sort.Ints(crashed)
		return &CrashError{Ranks: crashed}
	}
	return nil
}

// runRank runs the current Run's function as rank r. A panic poisons the
// world, so every other rank blocked in Recv unwinds; the rank's panic
// value (and, for a genuine panic, its stack) is left for Run to report.
func (w *World) runRank(r int) {
	defer w.wg.Done()
	defer func() {
		if e := recover(); e != nil {
			w.panics[r] = e
			if _, crash := e.(crashMark); !crash && e != poisonSentinel {
				w.stacks[r] = debug.Stack()
			}
			w.poison()
		}
	}()
	w.f(&w.comms[r])
}

// Comm is one rank's handle on the World.
type Comm struct {
	w    *World
	rank int
}

// Rank returns this rank's id in [0, P).
func (c *Comm) Rank() int { return c.rank }

// Crash models this rank dying mid-stage: it unwinds the rank
// immediately, and the peers discover the death at their next blocking
// point (barrier or receive) instead of hanging. Run reports the deaths
// as a *CrashError so the caller can roll the stage back and remap the
// dead ranks' work onto the survivors.
func (c *Comm) Crash() {
	panic(crashMark{rank: c.rank})
}

// P returns the communicator size.
func (c *Comm) P() int { return c.w.p }

// Gather collects each rank's slice on root (other ranks get nil). Slices
// may have different lengths (MPI_Gatherv semantics). The root receives
// in rank order; a transfer that exhausted its attempt budget under a
// fault hook panics the root, so Run reports it instead of a short
// result.
func (c *Comm) Gather(root int, vals []int64) [][]int64 {
	if c.rank != root {
		c.Send(root, vals)
		return nil
	}
	out := make([][]int64, c.w.p)
	out[root] = append([]int64(nil), vals...)
	for src := range out {
		if src == root {
			continue
		}
		d, ok := c.Recv(src)
		if !ok {
			panic(fmt.Sprintf("comm: gather from rank %d failed", src))
		}
		out[src] = d
	}
	return out
}
