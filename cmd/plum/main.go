// Command plum runs the full PLUM pipeline of the paper's Fig. 1 — flow
// solution, mesh adaption, preliminary evaluation, repartitioning,
// processor reassignment, gain/cost decision, and remapping — for a
// configurable number of cycles on the rotor-disk mesh, printing one
// report line per cycle.
//
//	go run ./cmd/plum -p 16 -cycles 3 -strategy local1
//	go run ./cmd/plum -p 64 -f 4 -partitioner hilbert
//
// Every balance pass maps the new partitions onto processors with the
// paper's heuristic; the exact (Hungarian) mapper it is measured against
// is Fig. 10's reference, run by cmd/experiments -exp fig10.
package main

import (
	_ "expvar" // /debug/vars on the -pprof server
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the -pprof server
	"os"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/obs"
	"plum/internal/par"
	"plum/internal/partition"
	"plum/internal/solver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("plum: ")

	var (
		p       = flag.Int("p", 8, "number of processors")
		f       = flag.Int("f", 1, "partitions per processor (granularity factor)")
		cycles  = flag.Int("cycles", 3, "solution/adaption cycles to run")
		strat   = flag.String("strategy", "local1", "edge-marking strategy: local1, local2, random, error")
		thresh  = flag.Float64("threshold", 1.2, "imbalance threshold Wmax/Wavg for repartitioning")
		parter  = flag.String("partitioner", "multilevel", fmt.Sprintf("repartitioner, one of %v", partition.Methods))
		exch    = flag.String("exchange", "", "remap payload exchange schedule: flat, aggregated (default: flat)")
		seed    = flag.Int64("seed", 1, "random seed")
		overlap = flag.Bool("overlap", false, "hide the balance pipeline behind the solver iterations: the acceptance rule charges only the exposed cost")
		faults  = flag.String("faults", "", "deterministic fault-injection plan, e.g. seed=7,rate=0.1,kinds=drop+corrupt or kinds=crash (empty = faults off)")
		retries = flag.Int("retries", -1, "recovery budget with -faults: extra send attempts per message and re-executions per failed remap window (-1 = default policy: 3 attempts, 2 window retries)")
		scale   = flag.Float64("scale", 1.0, "mesh scale factor (1.0 = paper's 61k elements)")
		verbose = flag.Bool("v", false, "print adaption phase breakdowns")
		traceF  = flag.String("trace", "", "write the run's deterministic per-stage trace to this file as Chrome/Perfetto trace-event JSON (byte-identical run to run)")
		metricF = flag.String("metrics", "", "write a Prometheus text-format metrics dump to this file")
		pprofA  = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	switch {
	case *p < 1:
		badFlag("invalid -p %d: need ≥ 1", *p)
	case *f < 1:
		badFlag("invalid -f %d: need ≥ 1", *f)
	case !(*scale > 0) || math.IsInf(*scale, 0):
		badFlag("invalid -scale %v: need a finite factor > 0", *scale)
	case *retries < -1:
		badFlag("invalid -retries %d: need ≥ 0, or -1 for the default policy", *retries)
	case *cycles < 0:
		badFlag("invalid -cycles %d: need ≥ 0", *cycles)
	case math.IsNaN(*thresh):
		badFlag("invalid -threshold %v: need a number", *thresh)
	}
	if *pprofA != "" {
		go func() { log.Printf("pprof server: %v", http.ListenAndServe(*pprofA, nil)) }()
	}

	cfg := core.DefaultConfig(*p)
	cfg.F = *f
	cfg.ImbalanceThreshold = *thresh
	cfg.Seed = *seed
	cfg.Overlap = *overlap
	method, ok := partition.MethodByName(*parter)
	if !ok {
		log.Fatalf("unknown partitioner %q (have %v)", *parter, partition.Methods)
	}
	cfg.Method = method
	// core.New resolves — and rejects — the schedule name.
	cfg.Exchange = *exch
	plan, err := fault.Parse(*faults)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Faults = plan
	if *retries >= 0 {
		cfg.Retry = fault.Budget(*retries)
	}

	// The observability hooks. Both stay nil (and cost nothing) unless
	// asked for; flushObs writes them out on every exit path, so degraded
	// runs still leave a trace behind — that is when it matters most.
	var tr *obs.Trace
	var reg *obs.Registry
	if *traceF != "" {
		tr = obs.NewTrace()
		cfg.Trace = tr
	}
	if *metricF != "" {
		reg = obs.NewRegistry()
		core.RegisterHelp(reg)
		cfg.Metrics = reg
	}
	flushObs := func() {
		if err := obs.WriteFiles(*traceF, tr, *metricF, reg); err != nil {
			log.Print(err)
		}
	}
	// notify routes the run's stderr one-liners through the trace event
	// stream as well — same text, same destination, same exit codes.
	notify := func(level, msg string) {
		tr.Event(level, msg)
		fmt.Fprintln(os.Stderr, msg)
	}

	rp := meshgen.DefaultRotor()
	if *scale != 1.0 {
		s := math.Cbrt(*scale)
		rp.NR = max(2, int(float64(rp.NR)*s))
		rp.NTheta = max(2, int(float64(rp.NTheta)*s))
		rp.NZ = max(2, int(float64(rp.NZ)*s))
	}
	m := meshgen.RotorDisk(rp)
	// Feature at the mid-radius, mid-sweep point of the annulus (the
	// blade-tip region of the acoustics experiment).
	r := (rp.R0 + rp.R1) / 2
	th := rp.Sweep / 2
	feature := geom.Vec3{X: r * math.Cos(th), Y: r * math.Sin(th)}
	sol := solver.New(m, solver.GaussianPulse(feature, 0.3))
	fw, err := core.New(m, sol, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %s\n", m.Stats())
	fmt.Printf("config: P=%d F=%d threshold=%.2f partitioner=%s exchange=%s overlap=%v\n",
		cfg.P, cfg.F, cfg.ImbalanceThreshold, cfg.Method, fw.D.Exchange, cfg.Overlap)
	if plan.Enabled() {
		r := cfg.Retry.Normalize()
		fmt.Printf("faults: %s attempts=%d window-retries=%d\n", plan, r.MsgAttempts, r.WindowRetries)
	}

	var stratFn func(a *adapt.Adaptor)
	switch *strat {
	case "local1":
		stratFn = func(a *adapt.Adaptor) { a.MarkStrategyRefine(adapt.Local1, cfg.Seed) }
	case "local2":
		stratFn = func(a *adapt.Adaptor) { a.MarkStrategyRefine(adapt.Local2, cfg.Seed) }
	case "random":
		stratFn = func(a *adapt.Adaptor) { a.MarkStrategyRefine(adapt.Random, cfg.Seed) }
	case "error":
		stratFn = func(a *adapt.Adaptor) {
			errv := sol.EdgeError()
			hi := 0.0
			for _, e := range errv {
				if e > hi {
					hi = e
				}
			}
			a.MarkError(errv, 0.4*hi, -1)
		}
	default:
		log.Fatalf("unknown strategy %q", *strat)
	}

	var crashed []int
	for c := 1; c <= *cycles; c++ {
		rep, err := fw.Cycle(stratFn)
		if err != nil {
			log.Fatal(err)
		}
		b := rep.Balance
		crashed = append(crashed, b.CrashedRanks...)
		fmt.Printf("cycle %d: elems=%d refined=%d adaptT=%.3fs imb %.2f",
			c, m.NumActiveElems(), rep.Refine.TotalSubdivided(), rep.AdaptTime.Total, b.ImbalanceBefore)
		switch {
		case !b.Repartitioned && b.WmaxOld == b.WmaxFloor:
			fmt.Printf(" (at the granularity floor, no repartition)")
		case !b.Repartitioned:
			fmt.Printf(" (balanced, no repartition)")
		case b.Outcome == core.OutcomeRecovered:
			fmt.Printf(" -> remap lost ranks %v, RECOVERED onto %d survivors: moved %d elems, imb %.2f",
				b.CrashedRanks, fw.D.AliveCount(), b.Recovery.Moved, b.ImbalanceAfter)
		case b.Outcome == core.OutcomeRolledBack || b.Outcome == core.OutcomeDegraded:
			fmt.Printf(" -> repartitioned, remap ROLLED BACK, continuing on old partition (%s)", b.FaultDetail)
		case !b.Accepted:
			fmt.Printf(" -> repartitioned, remap REJECTED (gain %.3g ≤ %s)", b.Gain, costTerms(b))
		default:
			fmt.Printf(" -> %.2f, moved %d elems in %d sets (gain %.3g > %s), remapT=%.3fs",
				b.ImbalanceAfter, b.Predicted.Moved, b.Predicted.Sets, b.Gain, costTerms(b), b.Remap.Total)
			if b.Outcome == core.OutcomeRetriedCommitted {
				fmt.Printf(" [recovered: %d msg retries, %d window retries]",
					b.Remap.Retries, b.Remap.WindowRetries)
			}
		}
		fmt.Printf(" outcome=%s\n", rep.Outcome)
		if rep.Outcome == core.OutcomeDegraded {
			notify("error", fmt.Sprintf("plum: degraded at cycle %d: %d consecutive balance rollbacks under plan %q: %s",
				c, core.DegradedStreak, plan, b.FaultDetail))
			flushObs()
			os.Exit(1)
		}
		if *verbose {
			fmt.Printf("         target=%.4f propagate=%.4f execute=%.4f classify=%.4f rounds=%d msgs=%d words=%d\n",
				rep.AdaptTime.Target, rep.AdaptTime.Propagate, rep.AdaptTime.Execute,
				rep.AdaptTime.Classify, rep.AdaptTime.CommRounds, rep.AdaptTime.Msgs, rep.AdaptTime.Words)
			fmt.Printf("         adapt ops=%d (mem %d) visits=%d marked=%d\n",
				rep.AdaptTime.Ops.Total, rep.AdaptTime.Ops.Mem, rep.AdaptTime.Visits, rep.AdaptTime.Marked)
			if b.Repartitioned {
				fmt.Printf("         repart ops=%d (refine %d) t=%.3gs reassign ops=%d t=%.3gs\n",
					b.RepartitionOps, b.RefineOps, b.RepartitionTime, b.ReassignOps, b.ReassignTime)
				if b.Accepted {
					fmt.Printf("         remap pack=%.3gs comm=%.3gs rebuild=%.3gs setups=%d setupT=%.3gs peak=%d/%d words\n",
						b.Remap.PackTime, b.Remap.CommTime, b.Remap.RebuildTime, b.Remap.Setups, b.Remap.SetupTime,
						b.Remap.PeakWords, b.Remap.Moved*par.RecordWords)
				}
				if cfg.Overlap {
					fmt.Printf("         overlap hidden=%.3gs cost full=%.3gs exposed=%.3gs\n", b.OverlapTime, b.CostFull, b.Cost)
				}
			}
		}
	}
	if err := m.Check(); err != nil {
		notify("error", fmt.Sprintf("FINAL MESH INVALID: %v", err))
		flushObs()
		os.Exit(1)
	}
	if len(crashed) > 0 {
		// Rank deaths the run survived are a success, not a failure: the
		// note records the reduced capacity, and the exit stays 0.
		notify("warn", fmt.Sprintf("plum: recovered from crashes of ranks %v: %d of %d ranks remain",
			crashed, fw.D.AliveCount(), cfg.P))
	}
	fmt.Printf("final mesh valid: %s\n", m.Stats())
	flushObs()
}

// costTerms spells the cost side of a balance decision: the exposed cost,
// the predicted remap it charges (pack · wire · rebuild on the slowest
// rank's clock), the pipeline, the overlap credit, and the paper's
// total-volume formula beside them.
func costTerms(b core.BalanceReport) string {
	pr := b.Predicted
	return fmt.Sprintf("cost %.3g = remap %.3g [pack %.3g · wire %.3g · rebuild %.3g] + pipeline %.3g − overlap %.3g; paper %.3g",
		b.Cost, pr.Total, pr.PackTime, pr.CommTime, pr.RebuildTime,
		b.PipelineTime(), b.OverlapTime, b.CostPaper)
}

// badFlag rejects a flag value the way the flag package rejects a
// malformed one: a message on stderr and exit status 2.
func badFlag(format string, args ...any) {
	log.Printf(format, args...)
	os.Exit(2)
}
