package core

import (
	"bytes"
	"errors"
	"testing"

	"plum/internal/adapt"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/obs"
	"plum/internal/par"
	"plum/internal/partition"
)

// tracedRun drives a fixture with tracing and metrics attached and
// returns all three exports as byte slices. The fault-free fixture is
// the overlap-parity one (big enough for real multi-window streaming);
// the faulty fixture is the mixed crash+drop scenario, which exercises
// retries, rollbacks, checkpoint restore, and survivor recovery.
func tracedRun(t *testing.T, workers int, overlap, faulty bool) (perfetto, jsonl, prom []byte) {
	t.Helper()
	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	RegisterHelp(reg)

	var f *Framework
	var err error
	if faulty {
		cfg := DefaultConfig(8)
		cfg.Workers = workers
		cfg.Overlap = overlap
		cfg.Faults = &fault.Plan{Seed: 15, Rate: 0.15, Kinds: []fault.Kind{fault.Crash, fault.Drop}}
		cfg.Retry = fault.Budget(8)
		cfg.Trace = tr
		cfg.Metrics = reg
		f, err = New(meshgen.SmallBox(), nil, cfg)
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
	} else {
		m := meshgen.Box(12, 12, 12, geom.Vec3{X: 1, Y: 1, Z: 1})
		cfg := DefaultConfig(8)
		cfg.Method = partition.MethodHilbertSFC
		cfg.Workers = workers
		cfg.Overlap = overlap
		cfg.Trace = tr
		cfg.Metrics = reg
		f, err = New(m, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.A.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.6}, adapt.MarkRefine)
		f.A.Refine()
		rep, cerr := f.Cycle(func(a *adapt.Adaptor) {
			a.MarkRegion(geom.Sphere{Center: geom.Vec3{}, Radius: 0.4}, adapt.MarkRefine)
		})
		if cerr != nil {
			t.Fatal(cerr)
		}
		if !rep.Balance.Accepted {
			t.Fatalf("fixture did not accept the remap: gain=%g cost=%g",
				rep.Balance.Gain, rep.Balance.Cost)
		}
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("trace recorded no spans")
	}

	var p, j, m bytes.Buffer
	if err := obs.WritePerfetto(&p, tr); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&j, tr); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&m, reg); err != nil {
		t.Fatal(err)
	}
	return p.Bytes(), j.Bytes(), m.Bytes()
}

// TestTraceWorkerParity is the determinism contract of the tracing
// layer: every export — Perfetto JSON, JSONL, Prometheus text — must be
// byte-identical at workers 1, 2, 4, and 8, with overlap off and on,
// on the fault-free fixture and on a crash+drop seed that exercises
// retries, checkpoint restore, and survivor recovery.
func TestTraceWorkerParity(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		for _, overlap := range []bool{false, true} {
			refP, refJ, refM := tracedRun(t, 1, overlap, faulty)
			for _, w := range []int{2, 4, 8} {
				p, j, m := tracedRun(t, w, overlap, faulty)
				if !bytes.Equal(p, refP) {
					t.Errorf("faulty=%v overlap=%v workers=%d: perfetto export differs from workers=1",
						faulty, overlap, w)
				}
				if !bytes.Equal(j, refJ) {
					t.Errorf("faulty=%v overlap=%v workers=%d: jsonl export differs from workers=1",
						faulty, overlap, w)
				}
				if !bytes.Equal(m, refM) {
					t.Errorf("faulty=%v overlap=%v workers=%d: prometheus dump differs from workers=1:\n got %s\nwant %s",
						faulty, overlap, w, m, refM)
				}
			}
		}
	}
}

// TestTraceContent spot-checks that the pipeline's stages actually made
// it into the trace and the registry, on the faulty fixture (the richest
// path: solver, adapt phases, remap windows, fault events, recovery).
func TestTraceContent(t *testing.T) {
	_, jsonl, prom := tracedRun(t, 2, true, true)
	for _, want := range []string{
		`"stage":"cycle"`, `"stage":"solver"`, `"stage":"adapt.propagate"`,
		`"stage":"repartition"`, `"stage":"reassign"`, `"msg":"ckpt.capture"`,
		`"msg":"balance.evaluate"`,
	} {
		if !bytes.Contains(jsonl, []byte(want)) {
			t.Errorf("jsonl trace missing %s", want)
		}
	}
	for _, want := range []string{"plum_cycles_total 3", "plum_outcomes_total{outcome=", "plum_alive_ranks"} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("prometheus dump missing %s\n%s", want, prom)
		}
	}
}

// TestTraceDisabledIsFree pins the nil-observer cost contract: with
// Config.Trace and Config.Metrics unset, every instrumentation call the
// cycle hot path makes — all the guarded helpers, with their attribute
// arguments — must allocate nothing. The attr slices are built after
// the nil check, so a disabled observer costs one pointer compare.
func TestTraceDisabledIsFree(t *testing.T) {
	mdl := machine.SP2()
	var ops machine.Ops
	var res par.RemapResult
	var tm par.AdaptTimings
	errBoom := errors.New("boom")
	allocs := testing.AllocsPerRun(200, func() {
		traceCycleBegin(nil, 3)
		traceSolver(nil, 1.0, 3)
		traceAdapt(nil, tm)
		traceCkptCapture(nil, 1)
		traceCkptRestore(nil, 1)
		traceEvaluate(nil, 1.3, true)
		traceRepartition(nil, mdl, ops, 8)
		traceReassign(nil, 10, 0.1, 5)
		traceDecision(nil, 1.0, 10, 2, true)
		traceRemapExec(nil, "remap.exec", &res)
		traceRollback(nil, OutcomeRolledBack, "detail")
		traceCrash(nil, nil)
		traceCycleError(nil, errBoom)
		traceCycleEnd(nil, OutcomeCommitted)
		recordCycleMetrics(nil, nil, nil)
	})
	if allocs != 0 {
		t.Errorf("disabled observer allocated %.1f times per cycle's worth of calls, want 0", allocs)
	}
}
