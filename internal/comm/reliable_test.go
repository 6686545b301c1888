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
// self sends bufs[dst] to every other dst in ascending order — over the
// reliable path or the plain one — and takes one message from every other
// source. The result is indexed by source (the rank's own buffer copied
// through); transfers that exhausted their attempt budget leave a nil
// entry and are listed, ascending, in failed.
func exchangeAll(c *Comm, bufs [][]int64, reliable bool) (out [][]int64, failed []int) {
	const tag = 7
	p, self := c.P(), c.Rank()
	for dst := 0; dst < p; dst++ {
		switch {
		case dst == self:
		case reliable:
			c.SendReliable(dst, tag, bufs[dst])
		default:
			c.Send(dst, tag, bufs[dst])
		}
	}
	out = make([][]int64, p)
	out[self] = append([]int64(nil), bufs[self]...)
	for src := 0; src < p; src++ {
		switch {
		case src == self:
		case reliable:
			d, _, ok := c.RecvReliable(src, tag)
			if !ok {
				failed = append(failed, src)
				continue
			}
			out[src] = d
		default:
			out[src], _ = c.Recv(src, tag)
		}
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
		out, failed := exchangeAll(c, exchangePayloads(p, c.Rank()), true)
		outs[c.Rank()] = out
		fails[c.Rank()] = failed
	}); err != nil {
		t.Fatalf("reliable exchange: %v", err)
	}
	return outs, fails, w
}

func TestReliableExchangeNoFaults(t *testing.T) {
	// Without a fault hook, the reliable exchange must deliver exactly the
	// plain exchange's result with identical Msgs/Words stats.
	p := 5
	outs, fails, w := runReliableExchange(t, p, nil, 3)
	wPlain := NewWorld(p)
	plain := make([][][]int64, p)
	wPlain.Run(func(c *Comm) {
		plain[c.Rank()], _ = exchangeAll(c, exchangePayloads(p, c.Rank()), false)
	})
	for r := 0; r < p; r++ {
		if len(fails[r]) != 0 {
			t.Fatalf("rank %d reported failures with no faults: %v", r, fails[r])
		}
		if !reflect.DeepEqual(outs[r], plain[r]) {
			t.Errorf("rank %d: reliable %v != plain %v", r, outs[r], plain[r])
		}
	}
	st, stPlain := w.RankStats(), wPlain.RankStats()
	for r := range st {
		if st[r] != stPlain[r] {
			t.Errorf("rank %d stats: reliable %+v != plain %+v", r, st[r], stPlain[r])
		}
	}
}

func TestReliableExchangeRecoversFaults(t *testing.T) {
	// At a moderate fault rate with a generous budget, every transfer must
	// converge to the fault-free payloads, with the retries showing up in
	// Stats and the per-pair counters.
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
	var retries int64
	for _, s := range w.RankStats() {
		retries += s.Retries
	}
	if retries == 0 {
		t.Error("rate 0.4 produced no retries")
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
	// stats, and retry counters across runs.
	plan := &fault.Plan{Seed: 7, Rate: 0.5}
	o1, f1, w1 := runReliableExchange(t, 5, plan, 2)
	o2, f2, w2 := runReliableExchange(t, 5, plan, 2)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("reliable exchange not deterministic under faults")
	}
	if !reflect.DeepEqual(w1.RankStats(), w2.RankStats()) {
		t.Error("stats not deterministic under faults")
	}
	if !reflect.DeepEqual(w1.RetryCounters(), w2.RetryCounters()) {
		t.Error("retry counters not deterministic under faults")
	}
}

func TestReliableExchangeBudgetExhaustion(t *testing.T) {
	// With a rate-1 drop-only plan and one attempt per message, every
	// off-diagonal transfer must fail — and be *reported*, not deadlock.
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
	var failed int64
	for _, s := range w.RankStats() {
		failed += s.Failed
	}
	if failed != int64(p*(p-1)) {
		t.Errorf("Stats.Failed = %d, want %d", failed, p*(p-1))
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
				c.SendReliable(1, 1, []int64{int64(round)})
			} else {
				c.RecvReliable(0, 1)
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
