package fault

import (
	"math"
	"testing"
)

func TestFateDeterministic(t *testing.T) {
	p := &Plan{Seed: 7, Rate: 0.3}
	for cycle := 0; cycle < 3; cycle++ {
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				for a := 0; a < 5; a++ {
					k1 := p.Fate(StageRemap, cycle, src, dst, a)
					k2 := p.Fate(StageRemap, cycle, src, dst, a)
					if k1 != k2 {
						t.Fatalf("Fate not deterministic at (%d,%d,%d,%d)", cycle, src, dst, a)
					}
				}
			}
		}
	}
}

func TestFateKeySensitivity(t *testing.T) {
	// Different key components must give independent schedules: the two
	// stages (and two seeds) must disagree somewhere over a small grid.
	p1 := &Plan{Seed: 1, Rate: 0.5}
	p2 := &Plan{Seed: 2, Rate: 0.5}
	diffSeed, diffStage := false, false
	for src := 0; src < 8; src++ {
		for a := 0; a < 8; a++ {
			if p1.Fate(StageRemap, 1, src, 0, a) != p2.Fate(StageRemap, 1, src, 0, a) {
				diffSeed = true
			}
			if p1.Fate(StageRemap, 1, src, 0, a) != p1.Fate(StageAdapt, 1, src, 0, a) {
				diffStage = true
			}
		}
	}
	if !diffSeed || !diffStage {
		t.Errorf("schedules not independent: seed diff %v, stage diff %v", diffSeed, diffStage)
	}
}

// packedFate is Fate as it drew before the key grew its overflow words:
// one packed key word. Every key in range must still draw this.
func packedFate(p *Plan, stage Stage, cycle, src, dst, attempt int) Kind {
	key := uint64(cycle)<<40 ^ uint64(stage)<<36 ^
		uint64(uint16(src))<<20 ^ uint64(uint16(dst))<<4 ^ uint64(uint32(attempt))<<44
	h := splitmix64(uint64(p.Seed) ^ splitmix64(key))
	if float64(h>>11)/(1<<53) >= p.Rate {
		return None
	}
	return allKinds[splitmix64(h)%uint64(len(allKinds))]
}

func TestFateKeysInRangeUnchanged(t *testing.T) {
	p := &Plan{Seed: 13, Rate: 0.7}
	for _, stage := range []Stage{StageRemap, StageAdapt} {
		for _, cycle := range []int{0, 1, 4, 15} {
			for _, src := range []int{0, 1, 2047, 65535} {
				for _, dst := range []int{0, 3, 65535} {
					for _, a := range []int{0, 1, 49, 1<<20 - 1} {
						if got, want := p.Fate(stage, cycle, src, dst, a), packedFate(p, stage, cycle, src, dst, a); got != want {
							t.Fatalf("Fate(%d, %d, %d, %d, %d) = %v, the packed key drew %v", stage, cycle, src, dst, a, got, want)
						}
					}
				}
			}
		}
	}
}

func TestFateKeysInjective(t *testing.T) {
	// Cycle 16 must not replay cycle 0 with the attempt's low bit flipped,
	// and rank r+65536 must not replay rank r: past the packed fields each
	// key draws its own fates, agreeing with another's only by chance
	// (about one in four at rate 1 over four kinds).
	p := &Plan{Seed: 7, Rate: 1}
	same, sameSrc, sameDst, n := 0, 0, 0, 0
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			for a := 0; a < 50; a++ {
				n++
				k := p.Fate(StageRemap, 0, src, dst, a)
				if p.Fate(StageRemap, 16, src, dst, a^1) == k {
					same++
				}
				if p.Fate(StageRemap, 0, src+1<<16, dst, a) == k {
					sameSrc++
				}
				if p.Fate(StageRemap, 0, src, dst+1<<16, a) == k {
					sameDst++
				}
			}
		}
	}
	for name, m := range map[string]int{"cycle 16": same, "src+65536": sameSrc, "dst+65536": sameDst} {
		if m > n/2 {
			t.Errorf("%s replays %d of %d fates", name, m, n)
		}
	}
	c := &Plan{Seed: 7, Rate: 0.5, Kinds: []Kind{Crash}}
	sameRank := 0
	for cycle := 0; cycle < 8; cycle++ {
		for rank := 0; rank < 64; rank++ {
			if c.Crashed(StageRemap, cycle, rank) == c.Crashed(StageRemap, cycle, rank+1<<16) {
				sameRank++
			}
		}
	}
	if sameRank > 3*8*64/4 {
		t.Errorf("rank+65536 replays %d of %d crash fates", sameRank, 8*64)
	}
}

func TestFateRate(t *testing.T) {
	// The empirical fault fraction must track the configured rate.
	for _, rate := range []float64{0, 0.1, 0.5, 1} {
		p := &Plan{Seed: 42, Rate: rate}
		n, hits := 0, 0
		for src := 0; src < 16; src++ {
			for dst := 0; dst < 16; dst++ {
				for a := 0; a < 40; a++ {
					n++
					if p.Fate(StageRemap, 0, src, dst, a) != None {
						hits++
					}
				}
			}
		}
		got := float64(hits) / float64(n)
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("rate %g: empirical fault fraction %g", rate, got)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("seed=7,rate=0.05,kinds=drop+corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Rate != 0.05 || len(p.Kinds) != 2 || p.Kinds[0] != Drop || p.Kinds[1] != Corrupt {
		t.Fatalf("parsed %+v", p)
	}
	q, err := Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != p.String() {
		t.Errorf("round trip: %q vs %q", q.String(), p.String())
	}
	if pl, err := Parse(""); pl != nil || err != nil {
		t.Errorf("empty spec: %v, %v", pl, err)
	}
	for _, bad := range []string{"rate=2", "seed=x", "kinds=explode", "nonsense", "foo=1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestKindsRestriction(t *testing.T) {
	p := &Plan{Seed: 3, Rate: 1, Kinds: []Kind{Drop}}
	for a := 0; a < 50; a++ {
		if k := p.Fate(StageRemap, 0, 1, 2, a); k != Drop {
			t.Fatalf("restricted plan injected %v", k)
		}
	}
}

func TestNilAndZeroPlans(t *testing.T) {
	var p *Plan
	if p.Fate(StageRemap, 0, 0, 1, 0) != None || p.Enabled() || p.Exchange(StageRemap, 0, 3) != nil {
		t.Error("nil plan must be inert")
	}
	z := &Plan{Seed: 9}
	if z.Fate(StageRemap, 0, 0, 1, 0) != None || z.Enabled() {
		t.Error("zero-rate plan must be inert")
	}
}

func TestRetryPolicies(t *testing.T) {
	if d := (Retry{}).Normalize(); d != DefaultRetry() {
		t.Errorf("zero Retry normalized to %+v", d)
	}
	if b := Budget(2); b.MsgAttempts != 3 || b.WindowRetries != 2 {
		t.Errorf("Budget(2) = %+v", b)
	}
	if b := Budget(-1); b.MsgAttempts != 1 || b.WindowRetries != 0 {
		t.Errorf("Budget(-1) = %+v", b)
	}
	if r := (Retry{MsgAttempts: -2, WindowRetries: -3}).Normalize(); r.MsgAttempts != 1 || r.WindowRetries != 0 {
		t.Errorf("Normalize clamped to %+v", r)
	}
}

func TestBudgetSaturates(t *testing.T) {
	// The largest budget must mean "retry without bound", not wrap to
	// a count Normalize clamps to a single attempt.
	for _, b := range []int{math.MaxInt, math.MaxInt - 1} {
		r := Budget(b).Normalize()
		if r.MsgAttempts != math.MaxInt || r.WindowRetries != b {
			t.Errorf("Budget(%d).Normalize() = %+v, want %d attempts and %d window retries", b, r, math.MaxInt, b)
		}
	}
}

func TestDeliverPolicy(t *testing.T) {
	for _, c := range []struct {
		name             string
		fates            []Kind
		attempts         int
		resends, backoff int64
		delivered        bool
	}{
		{"none", []Kind{None}, 3, 0, 0, true},
		{"stall", []Kind{Stall}, 3, 0, 1, true},
		{"duplicate", []Kind{Duplicate}, 3, 1, 0, true},
		{"drop then none", []Kind{Drop, None}, 3, 1, 1, true},
		{"drop, drop, stall", []Kind{Drop, Drop, Stall}, 3, 2, 1 + 2 + 1, true},
		{"drop at a one-attempt budget", []Kind{Drop}, 1, 0, 1, false},
		{"corrupt until the budget runs out", []Kind{Corrupt, Corrupt, Corrupt}, 3, 2, 1 + 2 + 1, false},
	} {
		drawn := 0
		resends, backoff, delivered := Deliver(c.attempts, func() Kind {
			drawn++
			return c.fates[drawn-1]
		})
		if resends != c.resends || backoff != c.backoff || delivered != c.delivered {
			t.Errorf("%s: Deliver = (%d, %d, %v), want (%d, %d, %v)",
				c.name, resends, backoff, delivered, c.resends, c.backoff, c.delivered)
		}
		if drawn != len(c.fates) {
			t.Errorf("%s: drew %d fates, want %d", c.name, drawn, len(c.fates))
		}
	}
}

// TestExchangeModelDeliveredMatchesDeliver pins the model to the policy:
// one pair's sequence of messages, replayed by hand through Deliver on
// the plan's fates with the pair's attempt counter carried across
// messages, is charged the same resends and backoff, and a message is
// reported undelivered exactly when Deliver runs out of attempts.
func TestExchangeModelDeliveredMatchesDeliver(t *testing.T) {
	const msgs, attempts = 200, 3
	var failed, delivered int64
	for _, plan := range []*Plan{
		{Seed: 4, Rate: 0.5},
		{Seed: 8, Rate: 0.9, Kinds: []Kind{Drop, Corrupt}},
		{Seed: 6, Rate: 0.3, Kinds: []Kind{Duplicate, Stall}},
	} {
		x := plan.Exchange(StageRemap, 1, attempts)
		a, lost := 0, int64(0)
		for i := range msgs {
			wr, wb, wok := Deliver(attempts, func() Kind {
				a++
				return plan.Fate(StageRemap, 1, 0, 1, a-1)
			})
			r, b, ok := x.Resends(0, 1)
			if r != wr || b != wb || ok != wok {
				t.Fatalf("plan %v message %d: model (%d, %d, %v), Deliver (%d, %d, %v)", plan, i, r, b, ok, wr, wb, wok)
			}
			if ok {
				delivered++
			} else {
				lost++
			}
		}
		if x.Exhausted != lost {
			t.Errorf("plan %v: Exhausted %d, %d messages undelivered", plan, x.Exhausted, lost)
		}
		failed += lost
	}
	if failed == 0 || delivered == 0 {
		t.Errorf("the plans exercised too little: %d delivered, %d failed", delivered, failed)
	}
}

func TestExchangeModelDeterministic(t *testing.T) {
	run := func() (int64, int64, int64) {
		x := (&Plan{Seed: 11, Rate: 0.6}).Exchange(StageAdapt, 2, 3)
		for round := 0; round < 4; round++ {
			for src := int32(0); src < 4; src++ {
				for dst := int32(0); dst < 4; dst++ {
					if src != dst {
						x.Resends(src, dst)
					}
				}
			}
		}
		return x.Resent, x.BackoffUnits, x.Exhausted
	}
	r1, b1, e1 := run()
	r2, b2, e2 := run()
	if r1 != r2 || b1 != b2 || e1 != e2 {
		t.Fatalf("ExchangeModel not deterministic: (%d,%d,%d) vs (%d,%d,%d)", r1, b1, e1, r2, b2, e2)
	}
	if r1 == 0 {
		t.Error("rate 0.6 produced no modeled resends")
	}
}

func TestExchangeModelBudgetExhaustion(t *testing.T) {
	x := (&Plan{Seed: 1, Rate: 1, Kinds: []Kind{Drop}}).Exchange(StageAdapt, 0, 2)
	extra, backoff, delivered := x.Resends(0, 1)
	// Two attempts, both dropped: one resend, backoff for the retry plus
	// the escalation unit.
	if extra != 1 || delivered || x.Exhausted != 1 || backoff < 2 {
		t.Errorf("exhaustion path: extra=%d backoff=%d delivered=%v exhausted=%d", extra, backoff, delivered, x.Exhausted)
	}
	var nilX *ExchangeModel
	if e, b, ok := nilX.Resends(0, 1); e != 0 || b != 0 || !ok {
		t.Error("nil ExchangeModel must be inert")
	}
}

func TestCrashedDeterministicAndRankScoped(t *testing.T) {
	p := &Plan{Seed: 7, Rate: 0.3, Kinds: []Kind{Crash}}
	diffRank, diffCycle := false, false
	for cycle := 0; cycle < 4; cycle++ {
		for rank := 0; rank < 16; rank++ {
			c1 := p.Crashed(StageRemap, cycle, rank)
			if c1 != p.Crashed(StageRemap, cycle, rank) {
				t.Fatalf("Crashed not deterministic at (%d,%d)", cycle, rank)
			}
			if rank > 0 && c1 != p.Crashed(StageRemap, cycle, 0) {
				diffRank = true
			}
			if cycle > 0 && c1 != p.Crashed(StageRemap, 0, rank) {
				diffCycle = true
			}
		}
	}
	if !diffRank || !diffCycle {
		t.Errorf("crash fates not independent: rank diff %v, cycle diff %v", diffRank, diffCycle)
	}
}

func TestCrashedRate(t *testing.T) {
	for _, rate := range []float64{0, 0.1, 0.5, 1} {
		p := &Plan{Seed: 42, Rate: rate, Kinds: []Kind{Crash}}
		n, hits := 0, 0
		for cycle := 0; cycle < 200; cycle++ {
			for rank := 0; rank < 32; rank++ {
				n++
				if p.Crashed(StageRemap, cycle, rank) {
					hits++
				}
			}
		}
		got := float64(hits) / float64(n)
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("rate %g: empirical crash fraction %g", rate, got)
		}
	}
}

func TestCrashEnabledGating(t *testing.T) {
	var nilP *Plan
	cases := []struct {
		p    *Plan
		want bool
	}{
		{nilP, false},
		{&Plan{Seed: 1, Rate: 0.5}, false}, // default kinds exclude crash
		{&Plan{Seed: 1, Rate: 0, Kinds: []Kind{Crash}}, false},  // zero rate
		{&Plan{Seed: 1, Rate: 0.5, Kinds: []Kind{Drop}}, false}, // crash not named
		{&Plan{Seed: 1, Rate: 0.5, Kinds: []Kind{Crash}}, true},
		{&Plan{Seed: 1, Rate: 0.5, Kinds: []Kind{Drop, Crash}}, true},
	}
	for i, c := range cases {
		if got := c.p.CrashEnabled(); got != c.want {
			t.Errorf("case %d: CrashEnabled() = %v, want %v", i, got, c.want)
		}
	}
	if !(&Plan{Seed: 1, Rate: 0.5, Kinds: []Kind{Crash}}).Enabled() {
		t.Error("CrashEnabled plan must imply Enabled")
	}
	if (&Plan{Seed: 1, Rate: 0.5}).Crashed(StageRemap, 0, 0) {
		t.Error("plan without the crash kind drew a crash fate")
	}
}

func TestFateNeverReturnsCrash(t *testing.T) {
	// Crash is rank-scoped, not message-scoped: even a crash-only plan
	// must never emit it from the message-fate draw, and a mixed plan
	// must draw its message kinds as if crash were absent.
	only := &Plan{Seed: 5, Rate: 1, Kinds: []Kind{Crash}}
	mixed := &Plan{Seed: 5, Rate: 1, Kinds: []Kind{Crash, Drop, Stall}}
	ref := &Plan{Seed: 5, Rate: 1, Kinds: []Kind{Drop, Stall}}
	for a := 0; a < 64; a++ {
		if k := only.Fate(StageRemap, 0, 1, 2, a); k != None {
			t.Fatalf("crash-only plan emitted message fate %v", k)
		}
		got, want := mixed.Fate(StageRemap, 0, 1, 2, a), ref.Fate(StageRemap, 0, 1, 2, a)
		if got == Crash {
			t.Fatalf("Fate returned Crash at attempt %d", a)
		}
		if got != want {
			t.Fatalf("adding crash perturbed the message draw: got %v, want %v", got, want)
		}
	}
}

func TestParseCrashKind(t *testing.T) {
	p, err := Parse("seed=3,rate=0.1,kinds=crash")
	if err != nil {
		t.Fatal(err)
	}
	if !p.CrashEnabled() || len(p.Kinds) != 1 || p.Kinds[0] != Crash {
		t.Fatalf("parsed %+v", p)
	}
	q, err := Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != p.String() {
		t.Errorf("round trip: %q vs %q", q.String(), p.String())
	}
	if _, err := Parse("seed=3,rate=0.1,kinds=drop+crash"); err != nil {
		t.Errorf("mixed kinds with crash rejected: %v", err)
	}
}
