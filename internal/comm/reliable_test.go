package comm

import (
	"reflect"
	"testing"

	"plum/internal/fault"
)

// exchangePayloads builds the deterministic test payloads: rank src sends
// dst the words {src*1000 + dst, src, dst, ...} of length (src+dst)%5.
func exchangePayloads(p, src int) [][]int64 {
	bufs := make([][]int64, p)
	for dst := 0; dst < p; dst++ {
		n := (src + dst) % 5
		buf := make([]int64, n)
		for i := range buf {
			buf[i] = int64(src*1000 + dst*10 + i)
		}
		bufs[dst] = buf
	}
	return bufs
}

// exchangeAll is the all-pairs exchange the transport tests drive: rank
// self sends bufs[dst] to every other dst in ascending order and takes
// one message from every other source. The result is indexed by source
// (the rank's own buffer copied through); transfers that exhausted their
// attempt budget leave a nil entry and are listed, ascending, in failed.
func exchangeAll(c *Comm, bufs [][]int64) (out [][]int64, failed []int) {
	p, self := c.P(), c.Rank()
	for dst := 0; dst < p; dst++ {
		if dst != self {
			c.Send(dst, bufs[dst])
		}
	}
	out = make([][]int64, p)
	out[self] = append([]int64(nil), bufs[self]...)
	for src := 0; src < p; src++ {
		if src == self {
			continue
		}
		d, ok := c.Recv(src)
		if !ok {
			failed = append(failed, src)
			continue
		}
		out[src] = d
	}
	return out, failed
}

func runReliableExchange(t *testing.T, p int, plan *fault.Plan, attempts int) ([][][]int64, [][]int, *World) {
	t.Helper()
	w := NewWorld(p)
	w.SetFaults(plan.Hook(fault.StageRemap, 0), attempts)
	outs := make([][][]int64, p)
	fails := make([][]int, p)
	if err := w.Run(func(c *Comm) {
		out, failed := exchangeAll(c, exchangePayloads(p, c.Rank()))
		outs[c.Rank()] = out
		fails[c.Rank()] = failed
	}); err != nil {
		t.Fatalf("reliable exchange: %v", err)
	}
	return outs, fails, w
}

func TestReliableExchangeNoFaults(t *testing.T) {
	// Without a fault hook, the exchange must deliver every payload
	// exactly — empty ones as nil — with no failures, no retries, and no
	// per-pair transport state: nothing can be lost, so nothing is
	// sequenced.
	p := 5
	outs, fails, w := runReliableExchange(t, p, nil, 3)
	for r := 0; r < p; r++ {
		if len(fails[r]) != 0 {
			t.Fatalf("rank %d reported failures with no faults: %v", r, fails[r])
		}
		for src := 0; src < p; src++ {
			want := exchangePayloads(p, src)[r]
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(outs[r][src], want) {
				t.Errorf("rank %d from %d: got %v want %v", r, src, outs[r][src], want)
			}
		}
		if len(w.sends[r]) != 0 || len(w.recvs[r]) != 0 {
			t.Errorf("rank %d kept pair state without a hook: sends %v recvs %v", r, w.sends[r], w.recvs[r])
		}
	}
	if rc := w.RetryCounters(); rc != nil {
		t.Errorf("retry counters without a hook: %v", rc)
	}
}

func TestReliableExchangeRecoversFaults(t *testing.T) {
	// At a moderate fault rate with a generous budget, every transfer must
	// converge to the fault-free payloads, with the retries showing up in
	// the per-pair counters.
	p := 6
	plan := &fault.Plan{Seed: 99, Rate: 0.4}
	outs, fails, w := runReliableExchange(t, p, plan, 12)
	for r := 0; r < p; r++ {
		if len(fails[r]) != 0 {
			t.Fatalf("rank %d: transfers failed despite 12 attempts: %v", r, fails[r])
		}
		for src := 0; src < p; src++ {
			want := exchangePayloads(p, src)[r]
			if len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual([]int64(outs[r][src]), want) {
				t.Errorf("rank %d from %d: got %v want %v", r, src, outs[r][src], want)
			}
		}
	}
	var rs, bo int64
	for _, pr := range w.RetryCounters() {
		rs += pr.Resends
		bo += pr.Backoff
	}
	if rs == 0 || bo == 0 {
		t.Errorf("pair counters empty: resends %d backoff %d", rs, bo)
	}
}

func TestReliableExchangeDeterministic(t *testing.T) {
	// Same plan, same world size ⇒ byte-identical payloads, failure lists,
	// and retry counters across runs.
	plan := &fault.Plan{Seed: 7, Rate: 0.5}
	o1, f1, w1 := runReliableExchange(t, 5, plan, 2)
	o2, f2, w2 := runReliableExchange(t, 5, plan, 2)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("reliable exchange not deterministic under faults")
	}
	if !reflect.DeepEqual(w1.RetryCounters(), w2.RetryCounters()) {
		t.Error("retry counters not deterministic under faults")
	}
}

func TestReliableExchangeBudgetExhaustion(t *testing.T) {
	// With a rate-1 drop-only plan and one attempt per message, every
	// off-diagonal transfer must fail — and be *reported*, not deadlock —
	// at no resend and the one backoff unit of the failure notice.
	p := 4
	plan := &fault.Plan{Seed: 1, Rate: 1, Kinds: []fault.Kind{fault.Drop}}
	outs, fails, w := runReliableExchange(t, p, plan, 1)
	for r := 0; r < p; r++ {
		if len(fails[r]) != p-1 {
			t.Fatalf("rank %d: %d failures, want %d", r, len(fails[r]), p-1)
		}
		for src := 0; src < p; src++ {
			if src != r && outs[r][src] != nil {
				t.Errorf("rank %d has payload from failed transfer %d", r, src)
			}
		}
	}
	rc := w.RetryCounters()
	if len(rc) != p*(p-1) {
		t.Fatalf("%d pairs carry retry counters, want %d", len(rc), p*(p-1))
	}
	for _, pr := range rc {
		if pr.Resends != 0 || pr.Backoff != 1 {
			t.Errorf("pair %d->%d: %d resends, %d backoff units; want 0 and 1", pr.Src, pr.Dst, pr.Resends, pr.Backoff)
		}
	}
}

func TestReliableCorruptionDetected(t *testing.T) {
	// A corrupt-only plan with enough budget must still deliver the exact
	// payloads: the checksum rejects every garbled frame.
	p := 4
	plan := &fault.Plan{Seed: 3, Rate: 0.6, Kinds: []fault.Kind{fault.Corrupt}}
	outs, fails, _ := runReliableExchange(t, p, plan, 20)
	for r := 0; r < p; r++ {
		if len(fails[r]) != 0 {
			t.Fatalf("rank %d failures: %v", r, fails[r])
		}
		for src := 0; src < p; src++ {
			if src == r {
				continue
			}
			want := exchangePayloads(p, src)[r]
			if len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual([]int64(outs[r][src]), want) {
				t.Errorf("corrupted payload leaked through: rank %d from %d got %v want %v",
					r, src, outs[r][src], want)
			}
		}
	}
}

func TestReliableSequencesSpanRuns(t *testing.T) {
	// Sequence numbers and attempt counters persist across Run calls on
	// one World, so streaming windows and window retries see fresh fault
	// draws instead of replaying the same fates.
	w := NewWorld(2)
	plan := &fault.Plan{Seed: 5, Rate: 1, Kinds: []fault.Kind{fault.Drop}}
	w.SetFaults(plan.Hook(fault.StageRemap, 0), 2)
	for round := 0; round < 3; round++ {
		if err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, []int64{int64(round)})
			} else {
				c.Recv(0)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	pair := w.sends[0][0] // rank 0's only pair: 0 -> 1
	if pair.peer != 1 || len(w.sends[0]) != 1 || len(w.sends[1]) != 0 {
		t.Fatalf("sender-side pair state = %+v, want one pair 0 -> 1", w.sends)
	}
	if pair.attempt != 6 {
		t.Errorf("attempt counter after 3 rounds × 2 attempts = %d, want 6", pair.attempt)
	}
	if pair.seq != 3 {
		t.Errorf("sequence counter after 3 rounds = %d, want 3", pair.seq)
	}
}

// TestSendMatchesExchangeModel pins that a real and a modeled message pay
// one delivery policy: under the same plan, one pair's sequence of framed
// Sends leaves the retry counters and failures that the ExchangeModel
// charges the same sequence as Resent, BackoffUnits and Exhausted.
func TestSendMatchesExchangeModel(t *testing.T) {
	const msgs, attempts = 200, 3
	var resent, backoff, exhausted int64
	for _, plan := range []*fault.Plan{
		{Seed: 4, Rate: 0.5},
		{Seed: 8, Rate: 0.9, Kinds: []fault.Kind{fault.Drop, fault.Corrupt}},
		{Seed: 6, Rate: 0.3, Kinds: []fault.Kind{fault.Duplicate, fault.Stall}},
	} {
		w := NewWorld(2)
		w.SetFaults(plan.Hook(fault.StageRemap, 1), attempts)
		var failed int64 // rank 1's alone
		if err := w.Run(func(c *Comm) {
			for i := range msgs {
				if c.Rank() == 0 {
					c.Send(1, []int64{int64(i), 7})
				} else if _, ok := c.Recv(0); !ok {
					failed++
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		var real PairRetry
		if rc := w.RetryCounters(); len(rc) == 1 {
			real = rc[0]
		} else if len(rc) > 1 {
			t.Fatalf("plan %v: counters for %d pairs, want one", plan, len(rc))
		}
		x := plan.Exchange(fault.StageRemap, 1, attempts)
		for range msgs {
			x.Resends(0, 1)
		}
		if real.Resends != x.Resent || real.Backoff != x.BackoffUnits || failed != x.Exhausted {
			t.Errorf("plan %v: Send paid %d resends, %d backoff, %d failures; the model %d, %d, %d",
				plan, real.Resends, real.Backoff, failed, x.Resent, x.BackoffUnits, x.Exhausted)
		}
		resent, backoff, exhausted = resent+x.Resent, backoff+x.BackoffUnits, exhausted+x.Exhausted
	}
	if resent == 0 || backoff == 0 || exhausted == 0 {
		t.Errorf("the plans exercised too little: %d resends, %d backoff, %d exhausted", resent, backoff, exhausted)
	}
}

func FuzzChecksumDetectsSingleWordFlips(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), uint8(1), int64(0x2a))
	f.Add(int64(-7), int64(0), int64(1<<62), uint8(2), int64(1))
	f.Fuzz(func(t *testing.T, a, b, c int64, idx uint8, flip int64) {
		if flip == 0 {
			return
		}
		buf := []int64{a, b, c}
		sum := checksum(buf)
		buf[int(idx)%3] ^= flip
		if checksum(buf) == sum {
			t.Fatalf("single-word flip undetected: %v", buf)
		}
	})
}
