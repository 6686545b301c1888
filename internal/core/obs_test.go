package core

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"plum/internal/adapt"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/obs"
	"plum/internal/par"
)

// tracedRun drives the mixed crash+drop scenario, overlapped, with
// tracing and metrics attached, and returns both exports as byte slices.
// It exercises retries, rollbacks, rank crashes, and survivor recovery.
func tracedRun(t *testing.T) (perfetto, prom []byte) {
	t.Helper()
	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	RegisterHelp(reg)

	cfg := DefaultConfig(8)
	cfg.Overlap = true
	cfg.Faults = &fault.Plan{Seed: 15, Rate: 0.15, Kinds: []fault.Kind{fault.Crash, fault.Drop}}
	cfg.Retry = fault.Budget(8)
	cfg.Trace = tr
	cfg.Metrics = reg
	f, err := New(meshgen.SmallBox(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	radius := 0.7
	sawFault := false
	for c := 0; c < 3; c++ {
		r := radius
		rep, cerr := f.Cycle(func(a *adapt.Adaptor) {
			a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: r}, adapt.MarkRefine)
		})
		if cerr != nil {
			t.Fatal(cerr)
		}
		if rep.Outcome != OutcomeCommitted {
			sawFault = true
		}
		radius *= 0.8
	}
	if !sawFault {
		t.Fatal("faulty fixture never left the committed path; pick a hotter seed")
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("trace recorded no spans")
	}

	var p, m bytes.Buffer
	if err := obs.WritePerfetto(&p, tr); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&m, reg); err != nil {
		t.Fatal(err)
	}
	return p.Bytes(), m.Bytes()
}

var updateGolden = flag.Bool("update", false, "rewrite the trace goldens in testdata")

// TestTraceGolden pins the exported bytes of one toy run — the Perfetto
// trace and the Prometheus dump — against committed goldens: a 6³ box at
// P = 4, two cycles with overlap pricing and a crash+drop plan whose
// single-attempt budget forces window retries. Cycle 0 executes a
// remap after retries, cycle 1 loses a rank and recovers, so the files
// hold every stage the cycle emits: cycle, solver, the adaption phases,
// evaluate, repartition, reassign, decide, remap.window and
// remap.window.retry, the per-rank remap.send and remap.rebuild spans,
// rank.crash and remap.recovery. Regenerate with -update only when a
// change moves the trace on purpose.
func TestTraceGolden(t *testing.T) {
	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	RegisterHelp(reg)
	cfg := DefaultConfig(4)
	cfg.Overlap = true
	cfg.Faults = &fault.Plan{Seed: 9, Rate: 0.2, Kinds: []fault.Kind{fault.Crash, fault.Drop}}
	cfg.Retry = fault.Retry{MsgAttempts: 1, WindowRetries: 4}
	cfg.Trace = tr
	cfg.Metrics = reg
	f, err := New(meshgen.Box(6, 6, 6, geom.Vec3{X: 1, Y: 1, Z: 1}), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []BalanceOutcome
	for c := 0; c < 2; c++ {
		rep, err := f.Cycle(func(a *adapt.Adaptor) {
			a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.5}, adapt.MarkRefine)
		})
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, rep.Outcome)
	}
	if outcomes[0] != OutcomeRetriedCommitted || outcomes[1] != OutcomeRecovered {
		t.Fatalf("outcomes %v, want [retried-committed recovered]: the fixture no longer reaches every stage", outcomes)
	}
	var p, m bytes.Buffer
	if err := obs.WritePerfetto(&p, tr); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&m, reg); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		got  []byte
	}{{"trace.golden.json", p.Bytes()}, {"metrics.golden.prom", m.Bytes()}} {
		path := filepath.Join("testdata", g.name)
		if *updateGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: export differs from the golden (%d bytes, want %d)", g.name, len(g.got), len(want))
		}
	}
}

// TestTraceContent spot-checks that the pipeline's stages actually made
// it into the trace and the registry, on the faulty fixture (the richest
// path: solver, adapt phases, remap windows, fault events, recovery).
func TestTraceContent(t *testing.T) {
	perfetto, prom := tracedRun(t)
	for _, want := range []string{
		`"name": "cycle"`, `"name": "solver"`, `"name": "adapt.propagate"`,
		`"name": "repartition"`, `"name": "reassign"`, `"name": "rank.crash"`,
		`"name": "balance.evaluate"`,
	} {
		if !bytes.Contains(perfetto, []byte(want)) {
			t.Errorf("perfetto trace missing %s", want)
		}
	}
	for _, want := range []string{"plum_cycles_total 3", "plum_outcomes_total{outcome=", "plum_alive_ranks"} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("prometheus dump missing %s\n%s", want, prom)
		}
	}
}

// TestTraceDisabledIsFree pins the nil-observer cost contract: with
// Config.Trace and Config.Metrics unset, every emission the cycle makes
// must allocate nothing. The calls below are the ones Cycle, balance,
// recoverCrash and par's remap executor make, with attribute arguments of
// the same shapes, plus the multi-span emitters and the metrics hook.
// None is guarded: obs copies the attributes it keeps, so a variadic
// attribute slice never escapes and stays on the caller's stack.
func TestTraceDisabledIsFree(t *testing.T) {
	var tr *obs.Trace
	mdl := machine.SP2()
	var ops machine.Ops
	var res par.RemapResult
	var tm par.AdaptTimings
	errBoom := errors.New("boom")
	crashed := []int{1, 2}
	cycle, imb, gain, moved, sets, words := 3, 1.3, 1.0, int64(10), 2, int64(42)
	allocs := testing.AllocsPerRun(200, func() {
		// Cycle.
		tr.Begin("cycle", obs.Int("cycle", int64(cycle)))
		tr.Span(obs.FrameworkRank, "solver", tr.Now(), gain, obs.Int("iters", int64(cycle)))
		tr.Advance(gain)
		traceAdaptClose(tr, tm)
		traceAdaptFinish(tr, tm)
		tr.Event("error", "cycle.error", obs.String("err", errBoom.Error()))
		tr.End(obs.String("outcome", "error"))
		tr.End(obs.String("outcome", OutcomeRetriedCommitted.String()))
		recordCycleMetrics(nil, nil, nil)
		// balance.
		tr.Event("info", "balance.evaluate", obs.Float("imbalance", imb), obs.Bool("repartition", true))
		traceRepartition(tr, ops, ops.Time(mdl), cycle)
		tr.Span(obs.FrameworkRank, "reassign", tr.Now(), gain, obs.Int("ops", moved), obs.Int("objective", words))
		tr.Advance(gain)
		tr.Event("info", "remap.decide",
			obs.Float("gain", gain), obs.Int("moved", moved), obs.Int("sets", int64(sets)), obs.Bool("accepted", true))
		tr.Event("error", "balance.rollback",
			obs.String("outcome", OutcomeDegraded.String()), obs.String("detail", errBoom.Error()))
		traceRemapExec(tr, execStages, &res)
		// par's executeRemap, per window try and per verified window.
		tr.Event("warn", "remap.window.retry",
			obs.Int("window", int64(cycle)), obs.Int("failed", moved), obs.Int("try", int64(sets)))
		tr.Event("info", "remap.window",
			obs.Int("window", int64(cycle)), obs.Int("flows", int64(sets)), obs.Int("words", words))
		// recoverCrash.
		for _, r := range crashed {
			tr.Event("error", "rank.crash", obs.Int("rank", int64(r)))
		}
		traceRemapExec(tr, recoveryStages, &res)
	})
	if allocs != 0 {
		t.Errorf("disabled observer allocated %.1f times per cycle's worth of calls, want 0", allocs)
	}
}
