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
	if p.Fate(StageRemap, 0, 0, 1, 0) != None || p.Enabled() || p.Hook(StageRemap, 0) != nil {
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
	extra, backoff := x.Resends(0, 1)
	// Two attempts, both dropped: one resend, backoff for the retry plus
	// the escalation unit.
	if extra != 1 || x.Exhausted != 1 || backoff < 2 {
		t.Errorf("exhaustion path: extra=%d backoff=%d exhausted=%d", extra, backoff, x.Exhausted)
	}
	var nilX *ExchangeModel
	if e, b := nilX.Resends(0, 1); e != 0 || b != 0 {
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
