package comm

// The reliable transport: framed point-to-point messaging with per-pair
// sequence numbers, payload checksums, bounded retry, and modeled
// exponential backoff. Faults are injected by the deterministic hook a
// World carries (SetFaults); because the hook is a pure function of
// (src, dst, attempt) and the per-pair attempt counters advance in program
// order on the owning rank, every injected failure and every recovery is
// byte-reproducible at any worker count.
//
// A frame is [seq, flags, checksum, nwords] followed by the payload. The
// header words model protected control information (MPI envelopes survive
// payload corruption), so injected corruption only ever touches the
// payload or the carried checksum. Word counters in Stats count payload
// words only, which keeps the no-fault reliable path byte-identical in
// Stats to the plain Send path.
//
// Delivery contract: for every SendReliable exactly one terminal frame
// reaches the receiver — a clean frame (possibly after retries) or, when
// the attempt budget is exhausted, a fail frame. Receivers therefore never
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
// send attempt on the reliable path, and the per-message attempt budget
// (minimum 1, the initial send). A nil hook disables injection. Call
// between Run invocations only; the hook itself must be pure.
func (w *World) SetFaults(hook func(src, dst, attempt int) fault.Kind, msgAttempts int) {
	if msgAttempts < 1 {
		msgAttempts = 1
	}
	w.hook = hook
	w.maxAttempts = msgAttempts
}

// PairRetry is the recovery one (Src, Dst) pair needed on the reliable
// path: Resends extra physical frames, and Backoff modeled backoff units
// (Σ 2^try per failed attempt, plus one unit per stall), to be scaled by
// the machine model's RetryBackoff.
type PairRetry struct {
	Src, Dst         int32
	Resends, Backoff int64
}

// RetryCounters returns the retry counters the reliable path accumulated,
// one entry per pair that needed any recovery, in canonical (Src, Dst)
// order. Call after Run returns.
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
func (c *Comm) putFrame(dst, tag int, seq, flags int64, payload []int64, corruptSalt int64) {
	frame := make([]int64, frameHdr+len(payload))
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
	w := c.w
	w.statsMu.Lock()
	w.stats[c.rank].Msgs++
	w.stats[c.rank].Words += int64(len(payload))
	w.statsMu.Unlock()
	w.boxes[dst].put(message{src: c.rank, tag: tag, data: frame})
}

// SendReliable delivers data to dst with the given tag through the framed
// retry path and reports whether the transfer succeeded within the attempt
// budget. Failed transfers still deliver a fail frame, so the receiver
// learns the outcome instead of blocking. Retries and modeled backoff are
// charged to Stats and the per-pair counters.
func (c *Comm) SendReliable(dst, tag int, data []int64) bool {
	w := c.w
	if dst < 0 || dst >= w.p {
		panic(fmt.Sprintf("comm: reliable send to invalid rank %d", dst))
	}
	pair := pairOf(&w.sends[c.rank], dst)
	seq := pair.seq
	pair.seq++
	for try := 0; ; try++ {
		fate := fault.None
		if w.hook != nil {
			fate = w.hook(c.rank, dst, int(pair.attempt))
			pair.attempt++
		}
		switch fate {
		case fault.None:
			c.putFrame(dst, tag, seq, frameFlagOK, data, -1)
			return true
		case fault.Stall:
			// Delivered intact but late: charge one backoff unit.
			pair.backoff++
			c.putFrame(dst, tag, seq, frameFlagOK, data, -1)
			return true
		case fault.Duplicate:
			// Both copies are real wire traffic; the receiver's sequence
			// tracking discards the second.
			c.putFrame(dst, tag, seq, frameFlagOK, data, -1)
			c.putFrame(dst, tag, seq, frameFlagOK, data, -1)
			pair.resend++
			w.statsMu.Lock()
			w.stats[c.rank].Retries++
			w.stats[c.rank].RetryWords += int64(len(data))
			w.statsMu.Unlock()
			return true
		case fault.Corrupt:
			// The garbled frame reaches the wire (and the receiver's
			// checksum rejects it); the sender retries after a modeled
			// timeout.
			c.putFrame(dst, tag, seq, frameFlagOK, data, seq+int64(try))
		case fault.Drop:
			// Lost at the source; nothing reaches the receiver.
		}
		if try+1 >= w.maxAttempts {
			c.putFrame(dst, tag, seq, frameFlagFailed, nil, -1)
			pair.backoff++ // the failure notification's timeout
			w.statsMu.Lock()
			w.stats[c.rank].Failed++
			w.statsMu.Unlock()
			return false
		}
		pair.resend++
		pair.backoff += 1 << min(try, 16)
		w.statsMu.Lock()
		w.stats[c.rank].Retries++
		w.stats[c.rank].RetryWords += int64(len(data))
		w.statsMu.Unlock()
	}
}

// RecvReliable blocks until one reliable transfer from src (or AnySource)
// with the given tag reaches a terminal state. It discards stale
// duplicates and checksum-corrupt frames along the way, returning the
// payload and true for a clean delivery, or nil and false for a transfer
// whose sender exhausted its attempt budget.
func (c *Comm) RecvReliable(src, tag int) (data []int64, from int, ok bool) {
	w := c.w
	for {
		m := w.boxes[c.rank].get(src, tag)
		if len(m.data) < frameHdr || int64(len(m.data)-frameHdr) != m.data[3] {
			panic(fmt.Sprintf("comm: rank %d received torn frame from rank %d (%d words)",
				c.rank, m.src, len(m.data)))
		}
		seq, flags, sum := m.data[0], m.data[1], m.data[2]
		pair := pairOf(&w.recvs[c.rank], m.src)
		if seq < pair.seq {
			continue // stale duplicate of an already-delivered message
		}
		if flags == frameFlagFailed {
			pair.seq = seq + 1
			return nil, m.src, false
		}
		payload := m.data[frameHdr:]
		if checksum(payload) != sum {
			continue // corrupted in flight; a retry is already on the way
		}
		pair.seq = seq + 1
		if len(payload) == 0 {
			payload = nil // match the plain path's empty-message value
		}
		return payload, m.src, true
	}
}
