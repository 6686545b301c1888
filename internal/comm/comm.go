// Package comm is the message-passing runtime that stands in for MPI: a
// World of P ranks executing SPMD functions on goroutines, point-to-point
// sends with (source, tag) matching, and the one collective the
// finalization phase uses (Gather). All communication is by value over
// in-process queues — ranks share no mutable state, matching the
// distributed-memory discipline of the paper's C++/MPI implementation.
//
// Every rank records traffic counters (messages and words sent) so the
// machine model can translate a run's communication pattern into SP2-class
// time.
//
// The package also carries the robustness layer's transport: a reliable
// framed path (SendReliable/RecvReliable, see reliable.go) with sequence
// numbers, checksums, and bounded retry, driven by a deterministic fault
// hook installed via World.SetFaults. A rank that panics no longer hangs
// the other P−1 ranks: Run poisons the world, wakes every blocked Recv,
// and returns an aggregated error naming the failing ranks.
package comm

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"plum/internal/fault"
)

// message is one in-flight point-to-point payload.
type message struct {
	src, tag int
	data     []int64
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

// mailbox is a rank's incoming queue with (src, tag) matching.
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

func (mb *mailbox) get(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if mb.dead {
			panic(poisonSentinel)
		}
		for i, m := range mb.q {
			if (src == AnySource || m.src == src) && m.tag == tag {
				mb.q = append(mb.q[:i], mb.q[i+1:]...)
				return m
			}
		}
		mb.cond.Wait()
	}
}

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// World is a communicator of P ranks. It holds O(P) state — a mailbox
// and a traffic counter per rank — plus, on the reliable path, one small
// record per rank pair that has actually exchanged a message; its cost
// follows the messages sent, not the P² pairs that could send one.
type World struct {
	p     int
	boxes []mailbox

	deadMu sync.Mutex
	dead   bool // set by poison(); guarded by deadMu

	statsMu sync.Mutex
	stats   []Stats

	// Reliable-transport state (reliable.go). The hook and budget are set
	// between Run calls. Per-pair state exists only for the pairs that
	// have used the reliable path, created on first use: sends[src] is
	// touched by rank src's goroutine alone and recvs[dst] by rank dst's,
	// so no locking is needed.
	hook         func(src, dst, attempt int) fault.Kind
	maxAttempts  int
	deadline     time.Duration // wall-clock watchdog per Run; 0 = off
	sends, recvs [][]pairState
}

// pairState is one rank's side of a (src, dst) pair on the reliable path,
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

// Stats counts a rank's outgoing traffic. Words counts payload words only;
// the reliable path's frame headers are bookkeeping, not modeled volume.
type Stats struct {
	Msgs  int64
	Words int64
	// Retries counts extra physical frames the reliable path sent
	// (retransmissions and duplicate deliveries) and RetryWords their
	// payload words; Failed counts transfers abandoned after the attempt
	// budget. All three stay zero on the plain Send path.
	Retries    int64
	RetryWords int64
	Failed     int64
}

// NewWorld creates a communicator with p ranks.
func NewWorld(p int) *World {
	w := &World{p: p, boxes: make([]mailbox, p), stats: make([]Stats, p),
		maxAttempts: 1,
		sends:       make([][]pairState, p),
		recvs:       make([][]pairState, p),
	}
	for i := range w.boxes {
		w.boxes[i].cond.L = &w.boxes[i].mu
	}
	return w
}

// P returns the number of ranks.
func (w *World) P() int { return w.p }

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
	var wg sync.WaitGroup
	panics := make([]any, w.p)
	stacks := make([][]byte, w.p)
	comms := make([]Comm, w.p)
	for r := 0; r < w.p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					panics[rank] = e
					if _, crash := e.(crashMark); !crash && e != poisonSentinel {
						stacks[rank] = debug.Stack()
					}
					w.poison()
				}
			}()
			comms[rank] = Comm{w: w, rank: rank}
			f(&comms[rank])
		}(r)
	}
	if w.deadline > 0 {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
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
		wg.Wait()
	}
	var parts []string
	var crashed []int
	for r, e := range panics {
		if e == nil || e == poisonSentinel {
			continue
		}
		if _, ok := e.(crashMark); ok {
			crashed = append(crashed, r)
			continue
		}
		parts = append(parts, fmt.Sprintf("rank %d panicked: %v\n%s", r, e, stacks[r]))
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

// RankStats returns the accumulated traffic counters per rank.
func (w *World) RankStats() []Stats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return append([]Stats(nil), w.stats...)
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

// Send delivers a copy of data to dst with the given tag. It never blocks
// (buffered semantics, like MPI_Isend with guaranteed buffering).
func (c *Comm) Send(dst, tag int, data []int64) {
	if dst < 0 || dst >= c.w.p {
		panic(fmt.Sprintf("comm: send to invalid rank %d", dst))
	}
	cp := append([]int64(nil), data...)
	c.w.statsMu.Lock()
	c.w.stats[c.rank].Msgs++
	c.w.stats[c.rank].Words += int64(len(cp))
	c.w.statsMu.Unlock()
	c.w.boxes[dst].put(message{src: c.rank, tag: tag, data: cp})
}

// Recv blocks until a message with matching source and tag arrives and
// returns its payload and source rank. Pass AnySource to match any sender.
func (c *Comm) Recv(src, tag int) ([]int64, int) {
	m := c.w.boxes[c.rank].get(src, tag)
	return m.data, m.src
}

const tagGather = -1000

// Gather collects each rank's slice on root (other ranks get nil). Slices
// may have different lengths (MPI_Gatherv semantics).
func (c *Comm) Gather(root int, vals []int64) [][]int64 {
	if c.rank != root {
		c.Send(root, tagGather, vals)
		return nil
	}
	out := make([][]int64, c.w.p)
	out[root] = append([]int64(nil), vals...)
	for i := 0; i < c.w.p-1; i++ {
		d, src := c.Recv(AnySource, tagGather)
		out[src] = d
	}
	return out
}
