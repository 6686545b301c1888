package comm

// The transport: framed point-to-point messaging with per-pair sequence
// numbers, payload checksums, bounded retry, and modeled exponential
// backoff. It is the only path a message takes. Faults are injected by
// the deterministic hook a World carries (SetFaults), and what each fate
// costs is fault.Deliver's policy, shared with the modeled exchanges;
// because the hook is a pure function of (src, dst, attempt) and the
// per-pair attempt counters advance in program order on the owning rank,
// every injected failure and every recovery is byte-reproducible at any
// worker count.
//
// A frame is [seq, flags, checksum, nwords] followed by the payload. The
// header words model protected control information (MPI envelopes survive
// payload corruption), so injected corruption only ever touches the
// payload or the carried checksum. Without a hook no frame can be lost,
// duplicated or garbled, so neither side keeps sequence state: a send is
// one clean frame, and a world's cost stays O(P).
//
// Delivery contract: for every Send exactly one terminal frame reaches
// the receiver — a clean frame (possibly after retries) or, when the
// attempt budget is exhausted, a fail frame. Receivers therefore never
// time out and never deadlock; a failed transfer surfaces as ok=false and
// the caller (the transactional remap) decides whether to retry the window
// or roll back.

import (
	"fmt"
	"slices"

	"plum/internal/fault"
)

const (
	frameHdr              = 4 // seq, flags, checksum, nwords
	frameFlagOK     int64 = 0
	frameFlagFailed int64 = 1
)

// checksum is FNV-1a over the payload words. Each step x → (x^v)·prime is
// a bijection on uint64, so corrupting exactly one payload word always
// changes the digest — single-word corruption is detected with certainty,
// not just with high probability.
func checksum(data []int64) int64 {
	h := uint64(1469598103934665603)
	for _, v := range data {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return int64(h)
}

// SetFaults installs the transport fault hook consulted once per physical
// send attempt, and the per-message attempt budget
// (minimum 1, the initial send). A nil hook disables injection. Call
// between Run invocations only; the hook itself must be pure.
func (w *World) SetFaults(hook func(src, dst, attempt int) fault.Kind, msgAttempts int) {
	if msgAttempts < 1 {
		msgAttempts = 1
	}
	w.hook = hook
	w.maxAttempts = msgAttempts
}

// PairRetry is the recovery one (Src, Dst) pair needed under the fault
// hook: Resends extra physical frames, and Backoff modeled backoff units
// (Σ 2^try per failed attempt, plus one unit per stall), to be scaled by
// the machine model's RetryBackoff.
type PairRetry struct {
	Src, Dst         int32
	Resends, Backoff int64
}

// RetryCounters returns the retry counters the transport accumulated, one
// entry per pair that needed any recovery, in canonical (Src, Dst) order
// (none without a hook). Call after Run returns.
func (w *World) RetryCounters() []PairRetry {
	var out []PairRetry
	for src, pairs := range w.sends {
		lo := len(out)
		for _, sp := range pairs {
			if sp.resend > 0 || sp.backoff > 0 {
				out = append(out, PairRetry{Src: int32(src), Dst: sp.peer, Resends: sp.resend, Backoff: sp.backoff})
			}
		}
		slices.SortFunc(out[lo:], func(a, b PairRetry) int { return int(a.Dst - b.Dst) })
	}
	return out
}

// putFrame sends one physical frame. corruptSalt < 0 sends the frame
// clean; otherwise one payload word (or, for empty payloads, the carried
// checksum) is flipped, deterministically chosen by the salt.
func (c *Comm) putFrame(dst int, seq, flags int64, payload []int64, corruptSalt int64) {
	frame := c.w.frame(frameHdr + len(payload))
	frame[0] = seq
	frame[1] = flags
	frame[2] = checksum(payload)
	frame[3] = int64(len(payload))
	copy(frame[frameHdr:], payload)
	if corruptSalt >= 0 {
		if len(payload) == 0 {
			frame[2] ^= 0x2a
		} else {
			frame[frameHdr+int(corruptSalt)%len(payload)] ^= 0x2a
		}
	}
	c.w.boxes[dst].put(message{src: c.rank, data: frame})
}

// Send delivers a copy of data to dst and reports whether the transfer
// succeeded within the attempt budget. It never blocks (buffered
// semantics, like MPI_Isend with guaranteed buffering). Under a fault
// hook each attempt's fate puts the frames fault.Deliver implies — one
// clean frame, two copies, a frame garbled by a salt of seq+try, or
// nothing — and a failed transfer still delivers a fail frame, so the
// receiver learns the outcome instead of blocking. Resends and modeled
// backoff are charged to the pair's counters (RetryCounters).
func (c *Comm) Send(dst int, data []int64) bool {
	w := c.w
	if dst < 0 || dst >= w.p {
		panic(fmt.Sprintf("comm: send to invalid rank %d", dst))
	}
	if w.hook == nil {
		c.putFrame(dst, 0, frameFlagOK, data, -1)
		return true
	}
	pair := pairOf(&w.sends[c.rank], dst)
	seq := pair.seq
	pair.seq++
	resends, backoff, ok := fault.Deliver(w.maxAttempts,
		func() fault.Kind {
			a := pair.attempt
			pair.attempt++
			return w.hook(c.rank, dst, int(a))
		},
		func(try, copies int, corrupt bool) {
			salt := int64(-1)
			if corrupt {
				salt = seq + int64(try)
			}
			for range copies {
				c.putFrame(dst, seq, frameFlagOK, data, salt)
			}
		})
	pair.resend += resends
	pair.backoff += backoff
	if !ok {
		c.putFrame(dst, seq, frameFlagFailed, nil, -1)
	}
	return ok
}

// Recv blocks until one transfer from src reaches a terminal state. It
// discards stale duplicates and checksum-corrupt frames along the way,
// returning the payload and true for a clean delivery, or nil and false
// for a transfer whose sender exhausted its attempt budget. An empty
// payload arrives as nil.
func (c *Comm) Recv(src int) ([]int64, bool) {
	w := c.w
	var pair *pairState // nil without a hook: every frame is clean and in order
	if w.hook != nil {
		pair = pairOf(&w.recvs[c.rank], src)
	}
	for {
		m := w.boxes[c.rank].get(src)
		if len(m.data) < frameHdr || int64(len(m.data)-frameHdr) != m.data[3] {
			panic(fmt.Sprintf("comm: rank %d received torn frame from rank %d (%d words)",
				c.rank, src, len(m.data)))
		}
		seq, flags, sum := m.data[0], m.data[1], m.data[2]
		if pair != nil && seq < pair.seq {
			continue // stale duplicate of an already-delivered message
		}
		payload := m.data[frameHdr:]
		if checksum(payload) != sum {
			continue // corrupted in flight; a retry is already on the way
		}
		if pair != nil {
			pair.seq = seq + 1
		}
		if flags == frameFlagFailed {
			return nil, false
		}
		if len(payload) == 0 {
			payload = nil
		}
		return payload, true
	}
}
