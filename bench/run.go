package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/dual"
	"plum/internal/mesh"
	"plum/internal/obs"
	"plum/internal/par"
	"plum/internal/partition"
	"plum/internal/refine"
	"plum/internal/remap"
	"plum/internal/solver"
)

// repResult is what one repetition of a workload measured: the host clock
// around the cycles, the modeled clock and the counts out of the cycle
// reports, and the verdict of the correctness checks.
type repResult struct {
	SetupS   float64
	RunWallS float64 // summed host wall of the cycles
	ElemSum  int64   // Σ over cycles of active elements after the cycle

	Mallocs, AllocBytes uint64 // MemStats deltas over the cycles
	LiveHeapPeak        uint64 // max HeapAlloc right after a forced GC

	ModeledS float64 // modeled SP2 time to solution
	ImbSum   float64 // Σ over cycles of post-balance Wmax/Wavg over alive ranks

	Attempted, Failed int
	lastFailed        int
	Failures          []string
	Fingerprint       uint64

	// Layer holds what the cycle reports and the runtime say about the
	// layers, summed over the cycles and keyed by metric name: counts,
	// modeled seconds, collections. An observed repetition adds what the
	// framework's own trace holds.
	Layer map[string]float64
	// Spans holds the per-layer host seconds of a traced repetition.
	Spans map[string]float64
}

// repKind says how a repetition drives the cycle.
type repKind int

const (
	// timed calls fw.Cycle with nothing switched on: the end-to-end
	// metrics are made of these.
	timed repKind = iota
	// observed calls fw.Cycle with the framework's own trace and metrics
	// registry on. It opens every run as the discarded warm-up, and the
	// per-layer counts are read from its reports.
	observed
	// traced replays Cycle through the framework's public seams, one span
	// of the benchmark's recorder per layer call.
	traced
)

// runRep generates the scenario's input afresh and runs its cycles once.
func runRep(sc scenario, kind repKind, rec *recorder) repResult {
	r := repResult{Layer: map[string]float64{}}
	cfg := sc.cfg
	var tr *obs.Trace
	if kind == observed {
		tr = obs.NewTrace()
		cfg.Trace = tr
		cfg.Metrics = obs.NewRegistry()
		core.RegisterHelp(cfg.Metrics)
	}

	fw, setupS, err := setUp(sc, cfg, rec)
	r.SetupS = setupS
	if err != nil {
		r.fail(0, "core.New: %v", err)
		r.Attempted = 1
		return r
	}
	m := fw.M
	initialElems := m.NumActiveElems()

	var pr probes
	var ms0, ms1 runtime.MemStats
	fp := fnv.New64a()
	for c := 0; c < sc.Cycles; c++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		r.LiveHeapPeak = max(r.LiveHeapPeak, ms0.HeapAlloc)
		mark := func(a *adapt.Adaptor) {
			r.Layer["adapt.marked_edges"] += float64(a.MarkRegion(sc.refine(a.M, c), adapt.MarkRefine))
		}
		var rep core.CycleReport
		var coarsenT par.AdaptTimings

		cyc := rec.begin("cycle", -1, c)
		t := time.Now()
		if sc.coarsen != nil {
			rec.timed("par.coarsen", cyc, c, func() {
				fw.A.MarkRegion(sc.coarsen(c), adapt.MarkCoarsen)
				var st adapt.CoarsenStats
				st, coarsenT = fw.D.ParallelCoarsen(fw.A, fw.Cfg.Model)
				r.Layer["par.coarsen_removed_elems"] += float64(st.ElemsRemoved)
				r.Layer["par.refine_new_elems"] += float64(st.Rerefine.NewElems)
				fw.S.SyncAfterAdaption() // the re-refinement made vertices the solver must cover
			})
		}
		if kind == traced {
			rep, err = replayCycle(fw, c, mark, rec, cyc, &pr)
		} else {
			rep, err = fw.Cycle(mark)
		}
		r.RunWallS += time.Since(t).Seconds()
		rec.end(cyc)

		runtime.ReadMemStats(&ms1)
		r.Mallocs += ms1.Mallocs - ms0.Mallocs
		r.AllocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		r.Layer["runtime.gc_cycles"] += float64(ms1.NumGC - ms0.NumGC)
		r.Layer["runtime.gc_pause_s"] += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9

		r.Attempted++
		if err != nil {
			// The framework's state is undefined after an error: the
			// remaining cycles are not attempted.
			r.fail(c, "cycle: %v", err)
			break
		}
		r.tally(fw, rep, coarsenT)
		r.ElemSum += int64(m.NumActiveElems())
		r.check(fw, c, rep)
		writeFingerprint(fp, fw, rep)
	}
	r.Fingerprint = fp.Sum64()
	if err != nil {
		return r
	}

	runtime.GC()
	runtime.ReadMemStats(&ms0)
	r.LiveHeapPeak = max(r.LiveHeapPeak, ms0.HeapAlloc)
	// The last balance pass earns its credit in the solve that follows it.
	final := fw.Cfg.Cost.SolverTimeIters(slices.Max(fw.Loads()), fw.Cfg.SolverIters)
	r.ModeledS += final
	r.Layer["solver.modeled_s"] += final

	rec.timed("mesh.check", -1, -1, func() { err = m.Check() })
	if err != nil {
		r.fail(sc.Cycles-1, "final mesh invalid: %v", err)
	}
	r.finalLayers(fw)
	if kind == observed {
		if err := r.exportLayers(tr); err != nil {
			r.fail(sc.Cycles-1, "trace export: %v", err)
		}
	}
	if kind == traced {
		r.spanLayers(rec, initialElems)
	}
	return r
}

// setUp generates the scenario's mesh and builds the solver and the
// framework over it, and returns how long that took. The traced repetition
// also times, as discarded probes, the two stages core.New runs inside
// itself.
func setUp(sc scenario, cfg core.Config, rec *recorder) (*core.Framework, float64, error) {
	runtime.GC()
	setup := rec.begin("setup", -1, -1)
	t0 := time.Now()
	var m *mesh.Mesh
	rec.timed("meshgen.build", setup, -1, func() { m = sc.newMesh() })
	sol := solver.New(m, sc.field)
	if rec != nil {
		var g *dual.Graph
		rec.timed("dual.build", setup, -1, func() { g = dual.Build(m) })
		rec.timed("partition.initial", setup, -1, func() {
			partition.PartitionCounted(g, cfg.P, cfg.Method, partition.Options{Workers: cfg.Workers, Seed: cfg.Seed})
		})
	}
	var fw *core.Framework
	var err error
	rec.timed("core.new", setup, -1, func() { fw, err = core.New(m, sol, cfg) })
	seconds := time.Since(t0).Seconds()
	rec.end(setup)
	return fw, seconds, err
}

// fail records a failed check or cycle. A cycle counts as failed once,
// however many of its checks fail; checks run in cycle order.
func (r *repResult) fail(cycle int, format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf("cycle %d: ", cycle)+fmt.Sprintf(format, args...))
	if r.Failed == 0 || cycle != r.lastFailed {
		r.Failed++
		r.lastFailed = cycle
	}
}

// replayCycle is core.Framework.Cycle taken apart at its public seams so
// each layer call gets a span. Just before Balance it times the balance
// layers on the same inputs as discarded probes, children of the balance
// span; what is left of that span is the real Balance call.
//
// The public Balance has no overlap window to pass, so with Config.Overlap
// the replayed acceptance rule charges the full cost where Cycle charges
// the exposed remainder. That is why no count is read from this
// repetition, and why a fingerprint that differs from the untraced
// repetitions' fails the per-layer block: the spans would describe another
// execution.
func replayCycle(fw *core.Framework, c int, mark func(*adapt.Adaptor), rec *recorder, parent int, pr *probes) (core.CycleReport, error) {
	var rep core.CycleReport
	fw.D.FaultCycle = c
	rep.SolverTime = fw.Cfg.Cost.SolverTimeIters(slices.Max(fw.Loads()), fw.Cfg.SolverIters)
	rec.timed("solver.iterate", parent, c, func() { fw.S.Iterate(fw.Cfg.SolverIters) })
	rec.timed("adapt.mark", parent, c, func() { mark(fw.A) })
	rec.timed("par.refine", parent, c, func() { rep.Refine, rep.AdaptTime = fw.D.ParallelRefine(fw.A, fw.Cfg.Model) })
	rec.timed("solver.sync", parent, c, func() { fw.S.SyncAfterAdaption() })

	bal := rec.begin("core.balance", parent, c)
	pr.run(fw, rec, bal, c)
	b, err := fw.Balance()
	rec.end(bal)
	rep.Balance = b
	rep.Outcome = b.Outcome
	return rep, err
}

// probes times the stages Balance runs inside itself, on Balance's own
// inputs, and throws the results away.
type probes struct {
	sfc *partition.SFCPartitioner // the curve order, cached as the framework caches it
}

func (p *probes) run(fw *core.Framework, rec *recorder, parent, c int) {
	rec.timed("dual.update_weights", parent, c, func() { fw.G.UpdateWeights(fw.M) })
	alive := fw.D.Alive()
	if par.ImbalanceFactor(aliveLoads(fw, alive)) <= fw.Cfg.ImbalanceThreshold {
		return
	}
	k := len(alive) * fw.Cfg.F
	var asg partition.Assignment
	rec.timed("partition.repartition", parent, c, func() { asg = p.repartition(fw, k) })

	// The survivors' index space, as Balance compacts it after a crash.
	compact := make([]int32, fw.Cfg.P)
	for i := range compact {
		compact[i] = -1
	}
	for i, rank := range alive {
		compact[rank] = int32(i)
	}
	owners := fw.D.Owners()
	for v, o := range owners {
		owners[v] = compact[o]
	}
	var sim *remap.Similarity
	rec.timed("remap.build", parent, c, func() { sim = remap.Build(owners, asg, fw.G.Wremap, len(alive), fw.Cfg.F) })
	rec.timed("remap.heuristic", parent, c, func() { sim.Heuristic() })
}

// repartition mirrors the framework's repartition stage with the
// workload's options.
func (p *probes) repartition(fw *core.Framework, k int) partition.Assignment {
	curve, ok := fw.Cfg.Method.Curve()
	if !ok {
		asg, _ := partition.PartitionCounted(fw.G, k, fw.Cfg.Method,
			partition.Options{Workers: fw.Cfg.Workers, Seed: fw.Cfg.Seed})
		return asg
	}
	if p.sfc == nil {
		p.sfc = partition.NewSFCWorkers(fw.G, curve, fw.Cfg.Workers)
	}
	asg := p.sfc.Repartition(fw.G, k)
	refine.Default(fw.G.N, fw.Cfg.Workers).Refine(fw.G, asg, k, 2)
	return asg
}

func aliveLoads(fw *core.Framework, alive []int32) []int64 {
	full := fw.Loads()
	out := make([]int64, len(alive))
	for i, rank := range alive {
		out[i] = full[rank]
	}
	return out
}

// tally adds one cycle's reports to the modeled clock and the layer
// counts. The modeled time to solution is what the machine waits for:
// solve, adapt (and coarsen), the balance pipeline when it ran, the
// executed remap and any survivor recovery, less what overlap hid.
func (r *repResult) tally(fw *core.Framework, rep core.CycleReport, coarsen par.AdaptTimings) {
	b := rep.Balance
	r.ModeledS += rep.SolverTime + rep.AdaptTime.Total + coarsen.Total +
		b.RepartitionTime + b.ReassignTime + b.Remap.Total + b.Recovery.Total - b.OverlapTime
	r.ImbSum += b.ImbalanceAfter

	l := r.Layer
	l["core.imbalance_worst"] = max(l["core.imbalance_worst"], b.ImbalanceAfter)
	l["solver.modeled_s"] += rep.SolverTime
	l["par.refine_new_elems"] += float64(rep.Refine.NewElems)
	for _, t := range []par.AdaptTimings{rep.AdaptTime, coarsen} {
		l["par.adapt_ops"] += float64(t.Ops.Total)
		l["par.adapt_rounds"] += float64(t.CommRounds)
		l["par.adapt_msgs"] += float64(t.Msgs)
		l["par.adapt_words"] += float64(t.Words)
		l["par.adapt_modeled_s"] += t.Total
		l["comm.msg_retries"] += float64(t.Retries)
	}
	l["partition.ops"] += float64(b.RepartitionOps)
	l["partition.refine_ops"] += float64(b.RefineOps)
	l["partition.modeled_s"] += b.RepartitionTime
	l["remap.reassign_ops"] += float64(b.ReassignOps)
	l["remap.reassign_modeled_s"] += b.ReassignTime
	if b.Repartitioned {
		l["remap.repartitioned"]++
		l["remap.sim_cells"] += float64(b.Alive) * float64(b.Alive*fw.Cfg.F)
		if b.Outcome != core.OutcomeRecovered { // recovery overwrites WmaxNew with the survivors' loads
			proposed := float64(b.WmaxNew) * float64(b.Alive) / float64(fw.G.TotalWcomp())
			l["partition.imbalance_proposed_worst"] = max(l["partition.imbalance_proposed_worst"], proposed)
		}
	}
	if b.Accepted {
		l["remap.accepted"]++
	}
	for _, x := range []par.RemapResult{b.Remap, b.Recovery} {
		l["par.remap_moved_elems"] += float64(x.Moved)
		l["par.remap_words"] += float64(x.WordsMoved)
		l["par.remap_setups"] += float64(x.Setups)
		l["par.remap_peak_words"] = max(l["par.remap_peak_words"], float64(x.PeakWords))
		l["par.remap_modeled_s"] += x.Total
		l["comm.msg_retries"] += float64(x.Retries)
		l["comm.window_retries"] += float64(x.WindowRetries)
		l["comm.retry_words"] += float64(x.RetryWords)
	}
	switch b.Outcome {
	case core.OutcomeRecovered:
		l["fault.recovered_cycles"]++
	case core.OutcomeRolledBack, core.OutcomeDegraded:
		l["fault.rolled_back_cycles"]++
	}
	l["fault.crashed_ranks"] += float64(len(b.CrashedRanks))
}

// check runs the per-cycle correctness checks: weight conservation, owner
// totality over the alive ranks, report ≡ recomputed imbalance, and no
// degraded outcome.
func (r *repResult) check(fw *core.Framework, c int, rep core.CycleReport) {
	if rep.Outcome == core.OutcomeDegraded {
		r.fail(c, "outcome degraded: %s", rep.Balance.FaultDetail)
	}
	if w, n := fw.G.TotalWcomp(), int64(fw.M.NumActiveElems()); w != n {
		r.fail(c, "sum of Wcomp %d != %d active elements", w, n)
	}
	alive := fw.D.Alive()
	isAlive := make([]bool, fw.Cfg.P)
	for _, rank := range alive {
		isAlive[rank] = true
	}
	for v, o := range fw.D.Owners() {
		if o < 0 || int(o) >= len(isAlive) || !isAlive[o] {
			r.fail(c, "dual vertex %d owned by rank %d, which is not alive", v, o)
			break
		}
	}
	got, want := rep.Balance.ImbalanceAfter, par.ImbalanceFactor(aliveLoads(fw, alive))
	if math.Abs(got-want) > 1e-12*want {
		r.fail(c, "reported imbalance %v != recomputed %v", got, want)
	}
}

// writeFingerprint folds the cycle's observable result into the
// repetition's FNV-1a fingerprint: element counts, ownership, outcome.
func writeFingerprint(w io.Writer, fw *core.Framework, rep core.CycleReport) {
	fmt.Fprintf(w, "%d %d %d %v|", fw.M.NumActiveElems(), len(fw.M.Elems), rep.Outcome, fw.D.Owners())
}

// finalLayers fills the layer counts that are read once, after the last
// cycle: mesh occupancy, cut quality, checkpoint traffic, survivors.
func (r *repResult) finalLayers(fw *core.Framework) {
	l := r.Layer
	dead := 0
	for i := range fw.M.Elems {
		if fw.M.Elems[i].Dead {
			dead++
		}
	}
	l["mesh.active_elems"] = float64(fw.M.NumActiveElems())
	l["mesh.elem_slots"] = float64(len(fw.M.Elems))
	l["mesh.dead_slot_ratio"] = float64(dead) / float64(len(fw.M.Elems))
	l["partition.edge_cut_final"] = float64(partition.EdgeCut(fw.G, fw.D.Owners()))
	l["fault.alive_ranks_final"] = float64(fw.D.AliveCount())
	ck := fw.CheckpointStats()
	l["ckpt.captures"] = float64(ck.Captures)
	l["ckpt.restores"] = float64(ck.Restores)
	l["ckpt.full_words"] = float64(ck.FullWords)
	l["ckpt.delta_words"] = float64(ck.DeltaWords)
	l["ckpt.delta_ratio"] = ratio(float64(ck.DeltaWords), float64(ck.FullWords+ck.DeltaWords))
	l["remap.accept_ratio"] = ratio(l["remap.accepted"], l["remap.repartitioned"])
}

// spanLayers turns the traced repetition's spans into per-layer seconds.
func (r *repResult) spanLayers(rec *recorder, initialElems int) {
	l := map[string]float64{}
	r.Spans = l
	for metric, spans := range spanMetrics {
		for _, s := range spans {
			l[metric] += rec.total(s)
		}
	}
	l["meshgen.ns_per_elem"] = l["meshgen.build_s"] * 1e9 / float64(initialElems)
	l["par.refine_ns_per_new_elem"] = ratio(l["par.refine_s"]*1e9, r.Layer["par.refine_new_elems"])
	// The balance span's self time is the real Balance call; taking the
	// probed stages out of it leaves remap execution and the decision.
	self := selfTimes(rec.spans)
	for i, s := range rec.spans {
		if s.Name == "core.balance" {
			l["core.balance_s"] += float64(self[i]) / 1e9
		}
	}
	l["probe.total_s"] = l["dual.update_weights_s"] + l["partition.repartition_s"] + l["remap.build_s"] + l["remap.heuristic_s"]
	l["par.remap_exec_s"] = max(0, l["core.balance_s"]-l["probe.total_s"])
}

// spanMetrics names the spans each per-layer time is the sum of.
var spanMetrics = map[string][]string{
	"meshgen.build_s":         {"meshgen.build"},
	"dual.build_s":            {"dual.build"},
	"partition.initial_s":     {"partition.initial"},
	"core.new_s":              {"core.new"},
	"solver.iterate_s":        {"solver.iterate", "solver.sync"},
	"adapt.mark_s":            {"adapt.mark"},
	"par.refine_s":            {"par.refine"},
	"par.coarsen_s":           {"par.coarsen"},
	"mesh.check_s":            {"mesh.check"},
	"dual.update_weights_s":   {"dual.update_weights"},
	"partition.repartition_s": {"partition.repartition"},
	"remap.build_s":           {"remap.build"},
	"remap.heuristic_s":       {"remap.heuristic"},
}

// exportLayers measures what the framework's own modeled-clock trace of
// the run holds and what exporting it costs.
func (r *repResult) exportLayers(tr *obs.Trace) error {
	var cw countWriter
	t := time.Now()
	err := obs.WritePerfetto(&cw, tr)
	r.Layer["obs.export_s"] = time.Since(t).Seconds()
	r.Layer["obs.export_bytes"] = float64(cw)
	r.Layer["obs.spans"] = float64(len(tr.Spans()))
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
