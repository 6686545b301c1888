// Command plum runs the full PLUM pipeline of the paper's Fig. 1 — flow
// solution, mesh adaption, preliminary evaluation, repartitioning,
// processor reassignment, gain/cost decision, and remapping — for a
// configurable number of cycles on the rotor-disk mesh, printing one
// report line per cycle.
//
//	go run ./cmd/plum -p 16 -cycles 3 -strategy local1
//	go run ./cmd/plum -p 64 -f 4 -mapper optimal -partitioner hilbert
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
	"slices"

	"plum/internal/adapt"
	"plum/internal/chunk"
	"plum/internal/core"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/obs"
	"plum/internal/par"
	"plum/internal/partition"
	"plum/internal/propagate"
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
		mapper  = flag.String("mapper", "heuristic", "processor reassignment: heuristic, optimal")
		parter  = flag.String("partitioner", "multilevel", "repartitioner: graphgrow, inertial, multilevel, morton, hilbert")
		refiner = flag.String("refiner", "", "boundary-refinement backend forced on every partitioner: bandfm, diffusion, fm (default: each partitioner's own — band-FM for morton, hilbert and graphgrow, classic FM inside multilevel; the same partitions at any -workers)")
		propg   = flag.String("propagator", "", "adaption frontier-propagation backend: bulksync, aggregated (default: bulksync)")
		exch    = flag.String("exchange", "", "remap payload exchange schedule: flat, aggregated (default: flat)")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "worker goroutines for parallel partitioning and refinement phases (0 = GOMAXPROCS)")
		overlap = flag.Bool("overlap", false, "hide the balance pipeline behind the solver iterations and stream the remap payload one flow window at a time")
		faults  = flag.String("faults", "", "deterministic fault-injection plan, e.g. seed=7,rate=0.1,kinds=drop+corrupt or kinds=crash (empty = faults off)")
		retries = flag.Int("retries", -1, "recovery budget with -faults: extra send attempts per message and re-executions per failed remap window (-1 = default policy: 3 attempts, 2 window retries)")
		ckpt    = flag.Bool("checkpoint", false, "capture a copy-on-write cycle checkpoint before every balance pass (forced on by a crash-capable -faults plan)")
		deadln  = flag.Duration("deadline", 0, "wall-clock watchdog per comm stage; a stage that exceeds it aborts with a timeout error (0 = no watchdog)")
		scale   = flag.Float64("scale", 1.0, "mesh scale factor (1.0 = paper's 61k elements)")
		verbose = flag.Bool("v", false, "print adaption phase breakdowns")
		traceF  = flag.String("trace", "", "write the run's deterministic per-stage trace to this file (byte-identical at any -workers)")
		traceFm = flag.String("trace-format", "perfetto", "trace export format: perfetto (Chrome/Perfetto trace-event JSON) or jsonl")
		metricF = flag.String("metrics", "", "write a Prometheus text-format metrics dump to this file")
		pprofA  = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if !slices.Contains(obs.TraceFormats, *traceFm) {
		log.Fatalf("unknown -trace-format %q (have %v)", *traceFm, obs.TraceFormats)
	}
	if *pprofA != "" {
		go func() { log.Printf("pprof server: %v", http.ListenAndServe(*pprofA, nil)) }()
	}

	cfg := core.DefaultConfig(*p)
	cfg.F = *f
	cfg.ImbalanceThreshold = *thresh
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Overlap = *overlap
	switch *mapper {
	case "heuristic":
		cfg.Mapper = core.MapperHeuristic
	case "optimal":
		cfg.Mapper = core.MapperOptimal
	default:
		log.Fatalf("unknown mapper %q", *mapper)
	}
	method, ok := partition.MethodByName(*parter)
	if !ok {
		log.Fatalf("unknown partitioner %q (have %v)", *parter, partition.Methods)
	}
	cfg.Method = method
	// core.New resolves — and rejects — the three backend names.
	cfg.Refiner = *refiner
	cfg.Propagator = *propg
	cfg.Exchange = *exch
	plan, err := fault.Parse(*faults)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Faults = plan
	if *retries >= 0 {
		cfg.Retry = fault.Budget(*retries)
	}
	cfg.Checkpoint = *ckpt
	cfg.StageDeadline = *deadln

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
		if err := obs.WriteFiles(*traceF, *traceFm, tr, *metricF, reg); err != nil {
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
		rp.NR = maxInt(2, int(float64(rp.NR)*s))
		rp.NTheta = maxInt(2, int(float64(rp.NTheta)*s))
		rp.NZ = maxInt(2, int(float64(rp.NZ)*s))
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
	refName := cfg.Refiner
	if refName == "" {
		refName = "auto"
	}
	fmt.Printf("config: P=%d F=%d threshold=%.2f mapper=%s partitioner=%s refiner=%s propagator=%s exchange=%s workers=%d overlap=%v\n",
		cfg.P, cfg.F, cfg.ImbalanceThreshold, cfg.Mapper, cfg.Method, refName, propagate.Names[fw.D.Prop],
		fw.D.Exchange, chunk.Workers(cfg.Workers), cfg.Overlap)
	if plan.Enabled() {
		r := cfg.Retry.Normalize()
		fmt.Printf("faults: %s attempts=%d window-retries=%d\n", plan, r.MsgAttempts, r.WindowRetries)
	}
	if fw.Cfg.Checkpoint {
		fmt.Printf("checkpoint: copy-on-write cycle snapshots on (deadline=%v)\n", fw.Cfg.StageDeadline)
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
		case !b.Repartitioned:
			fmt.Printf(" (balanced, no repartition)")
		case b.Outcome == core.OutcomeRecovered:
			fmt.Printf(" -> remap lost ranks %v, RECOVERED onto %d survivors: moved %d elems, imb %.2f",
				b.CrashedRanks, fw.D.AliveCount(), b.Recovery.Moved, b.ImbalanceAfter)
		case b.Outcome == core.OutcomeRolledBack || b.Outcome == core.OutcomeDegraded:
			fmt.Printf(" -> repartitioned, remap ROLLED BACK, continuing on old partition (%s)", b.FaultDetail)
		case !b.Accepted:
			fmt.Printf(" -> repartitioned, remap REJECTED (gain %.3g ≤ cost %.3g)", b.Gain, b.Cost)
		default:
			fmt.Printf(" -> %.2f, moved %d elems in %d sets (gain %.3g > cost %.3g), remapT=%.3fs",
				b.ImbalanceAfter, b.MoveC, b.MoveN, b.Gain, b.Cost, b.Remap.Total)
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
			fmt.Printf("         adapt ops=%d crit=%d execT=%.3gs visits=%d marked=%d\n",
				b.AdaptOps, b.AdaptCritOps, b.AdaptExecTime,
				rep.AdaptTime.Visits, rep.AdaptTime.Marked)
			if b.Repartitioned {
				fmt.Printf("         repart ops=%d crit=%d (refine %d/%d) compT=%.3gs memT=%.3gs reassign ops=%d t=%.3gs\n",
					b.RepartitionOps, b.RepartitionCritOps, b.RefineOps, b.RefineCritOps,
					b.RepartitionCompTime, b.RepartitionMemTime,
					b.ReassignOps, b.ReassignTime)
				fmt.Printf("         remap ops=%d crit=%d execT=%.3gs", b.RemapOps, b.RemapCritOps, b.RemapExecTime)
				if b.Accepted {
					fmt.Printf(" pack=%.3gs comm=%.3gs rebuild=%.3gs setups=%d setupT=%.3gs",
						b.Remap.PackTime, b.Remap.CommTime, b.Remap.RebuildTime, b.Remap.Setups, b.Remap.SetupTime)
				}
				fmt.Println()
				if cfg.Overlap {
					fmt.Printf("         overlap hidden=%.3gs cost full=%.3gs exposed=%.3gs", b.OverlapTime, b.CostFull, b.Cost)
					if b.Accepted {
						fmt.Printf(" peak=%d/%d words", b.Remap.PeakWords, b.Remap.Moved*par.RecordWords)
					}
					fmt.Println()
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
