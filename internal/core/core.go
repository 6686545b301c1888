// Package core implements the paper's framework for parallel adaptive flow
// computation (its Fig. 1): a flow solver and mesh adaptor coupled to a
// partitioner and mapper that redistribute the computational mesh when
// necessary. Each cycle runs the solver, adapts the mesh, evaluates the
// load balance on the dual graph, and — if the imbalance exceeds the
// threshold — repartitions, reassigns partitions to processors so as to
// minimize data movement, and accepts the remap only when the expected
// computational gain exceeds the redistribution cost.
package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"plum/internal/adapt"
	"plum/internal/ckpt"
	"plum/internal/dual"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/obs"
	"plum/internal/par"
	"plum/internal/partition"
	"plum/internal/propagate"
	"plum/internal/refine"
	"plum/internal/remap"
	"plum/internal/solver"
)

// Mapper selects the processor-reassignment algorithm.
type Mapper int

// Available mappers.
const (
	MapperHeuristic Mapper = iota
	MapperOptimal
)

// String implements fmt.Stringer.
func (mp Mapper) String() string {
	if mp == MapperOptimal {
		return "optimal"
	}
	return "heuristic"
}

// Config parameterizes the framework.
type Config struct {
	// P is the number of processors; F is the number of partitions per
	// processor (the paper's granularity factor; F=1 suffices for most
	// practical applications).
	P, F int
	// ImbalanceThreshold triggers repartitioning when Wmax/Wavg exceeds
	// it.
	ImbalanceThreshold float64
	// Method is the repartitioning algorithm.
	Method partition.Method
	// Mapper chooses heuristic or optimal processor reassignment.
	Mapper Mapper
	// Model is the machine model for timing: per-operation costs plus one
	// link level, on which every message pays Tsetup + words·Tlat.
	Model machine.Model
	// Cost holds the gain/cost decision constants.
	Cost remap.CostModel
	// Seed drives any randomized components.
	Seed int64
	// Workers bounds the worker-goroutine count of the parallel
	// partitioning and refinement phases (SFC key generation, sample
	// sort, chunked weighted cut, band-FM gain scatter). ≤ 0 means
	// runtime.GOMAXPROCS. Partition assignments are identical at every
	// worker count; only wall time changes.
	Workers int
	// Refiner names the boundary-refinement backend forced on every
	// partitioner: "bandfm" (the deterministic band-limited parallel
	// FM), "diffusion" (Jostle-style weighted diffusion), or "fm" (the
	// classic serial sweep). "" keeps each partitioner's own default —
	// band-FM for the SFC methods and graphgrow, classic FM inside
	// multilevel — which, like every named choice, gives the same
	// partitions at any Workers. New resolves the name once. See
	// internal/refine.
	Refiner string
	// Propagator names the exchange schedule of the adaption passes'
	// notification traffic: "bulksync" (the paper's one message per rank
	// pair) or "aggregated" (one combined message per source rank, for
	// high processor counts). "" selects bulksync. It is independent of
	// Exchange, which schedules the remap payload. New resolves the name
	// once into Framework.D.Prop. See internal/propagate.
	Propagator string
	// Exchange names the remap payload exchange schedule: "flat" (one
	// message per flow — the paper's semantics) or "aggregated" (one
	// combined frame per source rank). "" selects flat. It is a pricing
	// parameter, like Propagator: the owner array, the payload bytes and
	// the fault fates are identical under both; only the modeled
	// communication charges and the acceptance rule's setup term differ.
	// New resolves the name once into Framework.D.Exchange. See
	// internal/machine.Exchange.
	Exchange string
	// SolverIters is the number of proxy flow-solver iterations each
	// cycle runs before adaption, and the multiplier of the modeled
	// CycleReport.SolverTime — a single knob so the proxy solve and the
	// modeled cost can never silently disagree (Cycle used to hardcode
	// Iterate(3) while SolverTime modeled the cost model's Nadapt
	// iterations). 0 selects the default of 3; negative is rejected by
	// New.
	SolverIters int
	// Overlap hides the balance pipeline behind the solver, the paper's
	// latency-tolerance argument: the repartition + reassignment +
	// remap-execution critical path runs concurrently with the modeled
	// solver iterations on the machine clock, the acceptance rule charges
	// only the exposed (post-overlap) cost, and the remap executes under
	// the streaming window budget (par.ExecuteRemapStreaming), which
	// bounds peak payload memory to one flow window. False keeps the
	// paper-faithful strict barrier chain and the whole-payload remap
	// (par.ExecuteRemap) — the same executor with a single window.
	// Either way every result byte is identical — overlap changes what
	// the machine clock charges and how the host buffers the payload,
	// never the partitions, owners, or payload bytes.
	Overlap bool
	// PreAdapt uniformly refines the mesh this many times before the
	// dual graph is built, then rebases the refinement history — the
	// paper's remedy when the initial mesh is too small for good
	// partitions ("one can then allow the initial mesh to be adapted one
	// or more times before using the dual graph for all future
	// adaptions").
	PreAdapt int
	// Agglomerate, when > 1, groups roughly this many dual vertices into
	// superelements before partitioning — the paper's remedy when the
	// initial mesh is too *large* and partitioning time would be
	// excessive.
	Agglomerate int
	// Faults is the deterministic fault-injection plan for the balance
	// cycles (internal/fault): the remap payload exchange runs over the
	// reliable transport with real injected faults, and the adaption
	// notification exchanges are charged modeled retry traffic. nil — or
	// a zero-rate plan — keeps every report and every byte of mesh state
	// identical to the fault-free baseline. Each cycle draws an
	// independent schedule (the fault keys carry the cycle index).
	Faults *fault.Plan
	// Retry bounds the recovery effort when Faults is set: send attempts
	// per message and re-executions per failed remap window. The zero
	// value selects fault.DefaultRetry.
	Retry fault.Retry
	// Checkpoint snapshots the recoverable cycle state — ownership,
	// element weights, the fault-cycle scope, the rollback streak — into
	// an internal/ckpt checkpoint before each balance pass, so a rank
	// crash mid-remap restores to an audited pre-pass state before the
	// survivor remap runs. Delta/copy-on-write: a steady cycle writes only
	// the changed words. New force-enables it when the fault plan can
	// crash ranks; it can also be turned on alone to measure the cost.
	Checkpoint bool
	// StageDeadline arms a wall-clock watchdog on every remap exchange
	// stage: a stage whose worker ranks have not all finished within the
	// deadline fails with a typed timeout error instead of hanging the
	// process. Zero (the default) disables the watchdog — wall-clock
	// deadlines are inherently timing-dependent, so determinism-sensitive
	// runs leave this off. Negative is rejected by New.
	StageDeadline time.Duration
	// Trace, when non-nil, records per-stage spans and events on the
	// modeled timeline as the cycles run — solver, adaption phases,
	// repartition, reassignment, remap execution with per-rank
	// send/rebuild tracks, fault retries, checkpoints, crash recovery.
	// Only worker-invariant quantities are recorded, so exports are
	// byte-identical at every worker count. nil (the default) disables
	// tracing at the cost of one pointer compare per stage — zero
	// allocations on the cycle hot path. Not safe for concurrent
	// Frameworks; give each its own Trace.
	Trace *obs.Trace
	// Metrics, when non-nil, accumulates framework counters and gauges
	// (cycles, outcomes, ops, moved elements, retries, checkpoint words,
	// imbalance) after each completed cycle, for Prometheus text dumps.
	// Same determinism and nil-cost contract as Trace.
	Metrics *obs.Registry
}

// DefaultConfig returns the configuration used throughout the experiments:
// F=1, threshold 1.2, multilevel partitioner, heuristic mapper, SP2
// machine constants.
func DefaultConfig(p int) Config {
	return Config{
		P:                  p,
		F:                  1,
		ImbalanceThreshold: 1.2,
		Method:             partition.MethodMultilevel,
		Mapper:             MapperHeuristic,
		Model:              machine.SP2(),
		Cost:               remap.DefaultSP2(),
		Seed:               1,
		SolverIters:        3,
	}
}

// Framework couples the mesh, its dual graph, the distributed view, the
// adaptor, and (optionally) a proxy flow solver.
type Framework struct {
	Cfg Config
	M   *mesh.Mesh
	G   *dual.Graph
	D   *par.Dist
	A   *adapt.Adaptor
	S   *solver.Solver

	// forcedRefiner is Config.Refiner resolved by New: the backend forced
	// on every partitioner, nil when the config leaves each its own
	// default. sfcRefiner is what the SFC hot path in repartition runs:
	// the forced backend, or refine.Default.
	forcedRefiner, sfcRefiner refine.Refiner

	// sfcCache holds the curve order for the SFC partitioners. The dual
	// graph's centroids never change, so the order is computed once and
	// every later repartition is an O(n) scan (see partition.SFCPartitioner).
	sfcCache *partition.SFCPartitioner

	// cycles counts completed Cycle calls; it scopes the fault keys so
	// each cycle draws an independent schedule (par.Dist.FaultCycle).
	cycles int
	// rollbackStreak counts consecutive rolled-back balance passes; at
	// DegradedStreak the outcome escalates to OutcomeDegraded. A
	// committed remap resets it.
	rollbackStreak int
	// ck is the cycle checkpoint (Config.Checkpoint); nil when
	// checkpointing is off.
	ck *ckpt.Checkpoint
}

// CheckpointStats returns the cycle checkpoint's capture/restore
// counters (zero when Config.Checkpoint is off). The full-clone vs
// delta-word split is the measured cost of the near-zero steady-state
// claim: after the first capture, a cycle whose ownership barely moved
// writes only the changed words.
func (f *Framework) CheckpointStats() ckpt.Stats {
	if f.ck == nil {
		return ckpt.Stats{}
	}
	return f.ck.Stats()
}

// repartition divides the dual graph into k parts with the configured
// method and returns the abstract operation accounting of the
// partitioning itself. Every backend reports honest, nonzero cost: the
// graph partitioners count their matching/eigen-solve/refinement work
// (the paper times only reassignment and remap, which silently flatters
// its spectral partitioner); the SFC methods use the cached curve order,
// so only the first call pays the O(n log n) parallel sort and the
// critical-path count divides the parallel phases across Cfg.Workers.
// Refinement ops land in the Mem share, charged at Model.MemOp.
func (f *Framework) repartition(k int) (partition.Assignment, machine.Ops) {
	c, ok := f.Cfg.Method.Curve()
	if !ok {
		return partition.PartitionCounted(f.G, k, f.Cfg.Method,
			partition.Options{Workers: f.Cfg.Workers, Seed: f.Cfg.Seed, Refiner: f.forcedRefiner})
	}
	var ops machine.Ops
	if f.sfcCache == nil || f.sfcCache.Curve != c {
		f.sfcCache = partition.NewSFCWorkers(f.G, c, f.Cfg.Workers)
		ops.Total = f.sfcCache.LastOps // the one-time sort
		ops.Crit = f.sfcCache.LastCritOps
	}
	asg := f.sfcCache.Repartition(f.G, k)
	ops.Total += f.sfcCache.LastOps
	ops.Crit += f.sfcCache.LastCritOps
	ops.Add(f.sfcRefiner.Refine(f.G, asg, k, 2))
	return asg, ops
}

// New builds a framework over m: the dual graph is constructed, an initial
// P-way partition computed and mapped one-to-one onto processors, and the
// adaptor attached. sol may be nil when no solver coupling is needed.
func New(m *mesh.Mesh, sol *solver.Solver, cfg Config) (*Framework, error) {
	if cfg.P < 1 || cfg.F < 1 {
		return nil, fmt.Errorf("core: invalid P=%d F=%d", cfg.P, cfg.F)
	}
	if cfg.SolverIters < 0 {
		return nil, fmt.Errorf("core: invalid SolverIters=%d", cfg.SolverIters)
	}
	if cfg.SolverIters == 0 {
		cfg.SolverIters = 3
	}
	var forced refine.Refiner
	if cfg.Refiner != "" {
		var ok bool
		if forced, ok = refine.ByName(cfg.Refiner, cfg.Workers); !ok {
			return nil, fmt.Errorf("core: unknown refiner %q (have %v)", cfg.Refiner, refine.Names)
		}
	}
	prop, ok := propagate.ByName(cfg.Propagator)
	if !ok {
		return nil, fmt.Errorf("core: unknown propagator %q (have %v)", cfg.Propagator, propagate.Names)
	}
	exch, err := machine.ExchangeByName(cfg.Exchange)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.StageDeadline < 0 {
		return nil, fmt.Errorf("core: negative StageDeadline %v", cfg.StageDeadline)
	}
	if cfg.Faults.CrashEnabled() {
		// Crash recovery restores from the cycle checkpoint before the
		// survivor remap; a crash plan without checkpoints would have no
		// audited state to recover to.
		cfg.Checkpoint = true
	}
	for i := 0; i < cfg.PreAdapt; i++ {
		pa := adapt.New(m)
		pa.MarkRegion(geom.All{}, adapt.MarkRefine)
		pa.Refine()
		if sol != nil {
			sol.SyncAfterAdaption() // interpolate onto the new vertices
		}
		m.Rebase()
		if sol != nil {
			sol.SyncAfterAdaption() // Rebase renumbers the vertices; the field follows
		} else {
			m.ResetLog()
		}
	}
	g := dual.Build(m)
	asg := partitionMaybeAgglomerated(g, cfg, forced)
	d := par.NewDist(m, cfg.P, asg)
	d.Workers = cfg.Workers // the remap scatter and SPL scans share the knob
	d.Prop = prop           // the adaption passes' notification exchange schedule
	d.Exchange = exch       // the remap payload exchange schedule
	d.Faults = cfg.Faults   // fault plan + recovery budget for the balance cycles
	d.Retry = cfg.Retry
	d.StageDeadline = cfg.StageDeadline
	d.Trace = cfg.Trace // per-rank remap spans + streaming window events
	fw := &Framework{
		Cfg: cfg,
		M:   m,
		G:   g,
		D:   d,
		A:   adapt.New(m),
		S:   sol,

		forcedRefiner: forced,
		sfcRefiner:    forced,
	}
	if forced == nil {
		fw.sfcRefiner = refine.Default(g.N, cfg.Workers)
	}
	if cfg.Checkpoint {
		fw.ck = ckpt.New()
	}
	return fw, nil
}

// partitionMaybeAgglomerated partitions g into cfg.P parts, optionally via
// superelement agglomeration for very large duals. forced is the resolved
// Config.Refiner (nil = per-backend defaults).
func partitionMaybeAgglomerated(g *dual.Graph, cfg Config, forced refine.Refiner) partition.Assignment {
	opt := partition.Options{Workers: cfg.Workers, Seed: cfg.Seed, Refiner: forced}
	if cfg.Agglomerate <= 1 {
		asg, _ := partition.PartitionCounted(g, cfg.P, cfg.Method, opt)
		return asg
	}
	coarse, group := g.Agglomerate(cfg.Agglomerate)
	coarseAsg, _ := partition.PartitionCounted(coarse, cfg.P, cfg.Method, opt)
	asg := make(partition.Assignment, g.N)
	for v := range asg {
		asg[v] = coarseAsg[group[v]]
	}
	return asg
}

// Loads returns the per-processor computational weight under the current
// ownership (the projection of the new Wcomp onto the current partitions
// used by the preliminary evaluation).
func (f *Framework) Loads() []int64 {
	loads := make([]int64, f.Cfg.P)
	owners := f.D.Owners()
	for v, o := range owners {
		loads[o] += f.G.Wcomp[v]
	}
	return loads
}

// aliveLoads returns the computational loads of the surviving ranks,
// indexed by position in alive. With every rank alive the values and
// their order equal Loads() exactly, so the imbalance floats are
// bit-identical to the pre-crash-recovery arithmetic.
func (f *Framework) aliveLoads(alive []int32) []int64 {
	full := f.Loads()
	out := make([]int64, len(alive))
	for i, r := range alive {
		out[i] = full[r]
	}
	return out
}

// Evaluate is the preliminary evaluation step: it refreshes the dual
// weights from the mesh and returns the imbalance factor Wmax/Wavg over
// the surviving ranks and whether it exceeds the repartitioning
// threshold.
func (f *Framework) Evaluate() (imbalance float64, needsRepartition bool) {
	f.G.UpdateWeights(f.M)
	imb := par.ImbalanceFactor(f.aliveLoads(f.D.Alive()))
	return imb, imb > f.Cfg.ImbalanceThreshold
}

// BalanceOutcome classifies how one balance pass concluded under the
// fault plan. Without a plan every pass reports Committed.
type BalanceOutcome int

// The balance outcomes, in escalating order of distress.
const (
	// OutcomeCommitted: the pass completed cleanly — no remap attempted,
	// a remap rejected by the cost rule, or a remap executed without a
	// single retry.
	OutcomeCommitted BalanceOutcome = iota
	// OutcomeRetriedCommitted: the remap executed and converged to the
	// fault-free result, but only after transport or window retries.
	OutcomeRetriedCommitted
	// OutcomeRecovered: one or more ranks crashed mid-remap; the pass
	// restored the cycle checkpoint and remapped the dead ranks' elements
	// onto the survivors with the balancer's own partitioner + remap
	// machinery. The run continues on fewer processors with every element
	// survivor-owned and the total weight conserved.
	OutcomeRecovered
	// OutcomeRolledBack: the remap exhausted its retry budget and rolled
	// back; the cycle continues on the old partition (graceful
	// degradation) with the pre-balance ownership verifiably intact.
	OutcomeRolledBack
	// OutcomeDegraded: DegradedStreak consecutive balance passes rolled
	// back — the machine is persistently failing and the imbalance can no
	// longer be corrected. The framework keeps running, but drivers
	// should surface this loudly (cmd/plum exits non-zero).
	OutcomeDegraded
)

// DegradedStreak is the number of consecutive rolled-back balance passes
// that escalates OutcomeRolledBack to OutcomeDegraded.
const DegradedStreak = 2

// String implements fmt.Stringer.
func (o BalanceOutcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeRetriedCommitted:
		return "retried-committed"
	case OutcomeRecovered:
		return "recovered"
	case OutcomeRolledBack:
		return "rolled-back"
	case OutcomeDegraded:
		return "degraded"
	}
	return fmt.Sprintf("BalanceOutcome(%d)", int(o))
}

// BalanceReport records one pass through the load-balancing pipeline.
type BalanceReport struct {
	// ImbalanceBefore is Wmax/Wavg on the current partitions.
	ImbalanceBefore float64
	// Repartitioned reports whether the threshold was exceeded and a new
	// partitioning computed.
	Repartitioned bool
	// ImbalanceAfter is the projected imbalance of the new partitioning
	// (1.0-ish when repartitioned, else equal to ImbalanceBefore).
	ImbalanceAfter float64
	// WmaxOld and WmaxNew are the heaviest processor loads before/after.
	WmaxOld, WmaxNew int64
	// Objective is the mapper's 𝒥; MoveC and MoveN are the cost model's
	// C (elements moved) and N (element sets moved).
	Objective int64
	MoveC     int64
	MoveN     int
	// RepartitionOps and RepartitionCritOps describe the partitioner's
	// work including refinement: total ops summed over all workers, and
	// the critical-path share (what a parallel machine actually waits
	// for — equal for fully serial backends). Every backend reports
	// nonzero cost.
	RepartitionOps     int64
	RepartitionCritOps int64
	// RefineOps and RefineCritOps are the memory-bound refinement share
	// of the figures above (the band-FM/diffusion gain scatter), charged
	// at Model.MemOp; the compute-bound remainder (key encoding, sorts,
	// eigen-solves) is charged at Model.CompOp.
	RefineOps     int64
	RefineCritOps int64
	// RepartitionTime = RepartitionCompTime + RepartitionMemTime: the
	// modeled wall clock of the whole repartition, split across the two
	// machine rates.
	RepartitionTime     float64
	RepartitionCompTime float64
	RepartitionMemTime  float64
	// ReassignOps and ReassignTime describe the mapper's work
	// (similarity-matrix scans: memory-bound, charged at Model.MemOp).
	ReassignOps  int64
	ReassignTime float64
	// RemapOps and RemapCritOps describe the remap execution's scatter,
	// pack, and unpack work (par.PredictRemapOps of the mapping's C and
	// N): total ops over all workers and the critical-path share at the
	// framework's worker knob. They are computed before the gain/cost
	// decision — an executed remap reports the identical figures in
	// Remap.Ops — so RemapExecTime sits on the acceptance rule's cost
	// side next to the repartition and reassignment overheads.
	RemapOps     int64
	RemapCritOps int64
	// RemapExecTime is RemapOps' modeled wall clock: the mem-bound
	// critical path at Model.MemOp, the compute-bound remainder at
	// Model.CompOp.
	RemapExecTime float64
	// AdaptOps, AdaptCritOps, and AdaptExecTime describe the parallel
	// adaption pass that preceded this balance pass
	// (par.PredictAdaptOps of the executed phase quantities), filled by
	// Cycle; zero when Balance is invoked directly. Adaption is
	// mandatory work the cycle performs whatever the remap decision, so
	// these sit beside the pipeline costs for visibility rather than on
	// the acceptance rule's cost side.
	AdaptOps      int64
	AdaptCritOps  int64
	AdaptExecTime float64
	// Gain and Cost are the two sides of the acceptance test; Accepted
	// reports whether the remap was executed. Cost is the *exposed* cost:
	// CostFull minus OverlapTime. Without overlap the two are equal.
	Gain, Cost float64
	Accepted   bool
	// CostFull is the serial (non-overlapped) cost side: the paper's
	// redistribution terms plus the measured repartition, reassignment,
	// and remap-execution overheads. It is what the acceptance rule
	// charges when Config.Overlap is off.
	CostFull float64
	// OverlapTime is the portion of the balance pipeline's critical path
	// (repartition + reassignment + remap execution) hidden behind the
	// cycle's modeled solver iterations when Config.Overlap is on:
	// min(SolverTime, pipeline). The wire redistribution itself
	// (C·M·Tlat + N·Tsetup) stays exposed — element state can only move
	// once the overlapped iterations have finished with it. Zero when
	// overlap is off or when Balance runs outside a cycle (no solve to
	// hide behind).
	OverlapTime float64
	// Exchange is the remap exchange schedule the pass charges and (when
	// accepted) executes under — Config.Exchange, parsed.
	Exchange machine.Exchange
	// Remap holds the executed migration (zero when not accepted) — its
	// Setups / SetupTime are the quantities the exchange schedule exists
	// to shrink, its PeakWords the host-side payload high-water mark.
	Remap par.RemapResult
	// Outcome classifies the pass under the fault plan: Committed,
	// RetriedCommitted, Recovered, RolledBack, or Degraded. Always
	// Committed without a plan.
	Outcome BalanceOutcome
	// FaultDetail is the failed remap's diagnostic (the RemapError text);
	// empty unless Outcome is Recovered, RolledBack, or Degraded.
	FaultDetail string
	// CrashedRanks names the ranks that died this pass (sorted); nil
	// unless Outcome is Recovered.
	CrashedRanks []int
	// Alive is the surviving processor count the pass balanced over —
	// Config.P until the first crash, fewer after.
	Alive int
	// Recovery holds the survivor remap that repaired a crash: the
	// dead ranks' elements re-sourced from the cycle checkpoint's replica
	// and exchanged onto the P−|crashed| survivors through the ordinary
	// remap executor, with its machine-model charges (ChargeFlows under
	// the configured exchange schedule) intact. Zero unless Outcome is
	// Recovered.
	Recovery par.RemapResult
}

// Balance runs the repartitioning / reassignment / cost-decision /
// remapping pipeline of the framework once. When the current partitions
// are adequately balanced, or when the redistribution cost exceeds the
// expected gain, the mesh distribution is left untouched (the paper
// discards the new partitioning in that case).
//
// A standalone Balance has no solver phase to hide behind, so even with
// Config.Overlap the acceptance rule charges the full cost (OverlapTime
// is zero); Cycle passes its modeled solver time as the overlap window.
func (f *Framework) Balance() (BalanceReport, error) { return f.balance(0) }

// balance is the pipeline with an explicit overlap window: the modeled
// solver time the balance pipeline may hide behind when Config.Overlap is
// on.
func (f *Framework) balance(window float64) (BalanceReport, error) {
	var rep BalanceReport
	rep.Exchange = f.D.Exchange
	f.G.UpdateWeights(f.M)
	// Capture the recoverable cycle state before anything mutates: a rank
	// crash mid-remap restores to exactly this point before the survivor
	// remap runs. Delta-captured, so a steady cycle writes almost nothing.
	if f.ck != nil {
		f.ck.Capture(ckpt.State{Cycle: f.D.FaultCycle, Streak: f.rollbackStreak,
			Owners: f.D.Owners(), Weights: f.G.Wcomp})
		traceCkptCapture(f.Cfg.Trace, f.D.FaultCycle)
	}
	// All balance targets are the surviving ranks: after a crash the run
	// continues on fewer processors, and dead ranks must never appear in
	// an imbalance denominator or receive a partition. With every rank
	// alive the compaction is the identity and every float below is
	// bit-identical to the legacy arithmetic.
	alive := f.D.Alive()
	rep.Alive = len(alive)
	loads := f.aliveLoads(alive)
	rep.ImbalanceBefore = par.ImbalanceFactor(loads)
	rep.ImbalanceAfter = rep.ImbalanceBefore
	rep.WmaxOld = slices.Max(loads)
	if rep.ImbalanceBefore <= f.Cfg.ImbalanceThreshold {
		traceEvaluate(f.Cfg.Trace, rep.ImbalanceBefore, false)
		return rep, nil
	}
	traceEvaluate(f.Cfg.Trace, rep.ImbalanceBefore, true)
	rep.Repartitioned = true

	// Repartition the dual graph into S·F parts over the S survivors and
	// reassign the parts to them.
	pr, err := f.propose(alive)
	if err != nil {
		return rep, err
	}
	partOps := pr.partOps
	rep.Objective = pr.objective
	rep.RepartitionOps = partOps.Total
	rep.RepartitionCritOps = partOps.Crit
	rep.RefineOps = partOps.MemTotal
	rep.RefineCritOps = partOps.MemCrit
	rep.RepartitionCompTime = float64(partOps.Crit-partOps.MemCrit) * f.Cfg.Model.CompOp
	rep.RepartitionMemTime = float64(partOps.MemCrit) * f.Cfg.Model.MemOp
	rep.RepartitionTime = rep.RepartitionCompTime + rep.RepartitionMemTime
	traceRepartition(f.Cfg.Trace, f.Cfg.Model, partOps, len(alive)*f.Cfg.F)
	rep.ReassignOps = pr.sim.LastOps
	rep.ReassignTime = float64(pr.sim.LastOps) * f.Cfg.Model.MemOp
	traceReassign(f.Cfg.Trace, pr.sim.LastOps, rep.ReassignTime, rep.Objective)

	// Projected new loads under the mapping, one slot per survivor.
	newLoads := make([]int64, rep.Alive)
	for v, p := range pr.part {
		newLoads[pr.mapping[p]] += f.G.Wcomp[v]
	}
	rep.WmaxNew = slices.Max(newLoads)
	rep.ImbalanceAfter = par.ImbalanceFactor(newLoads)

	// Gain/cost decision. The cost side carries the measured balancing
	// overhead (repartition + reassignment + remap-execution time) on top
	// of the paper's redistribution terms — negligible for the
	// incremental SFC path, which is the point of modeling it. The remap
	// execution's scatter work is predicted from the mapping's C and N
	// (exactly the quantities ExecuteRemap will report), so the decision
	// can weigh it without running the remap; RedistCost models the wire
	// volume, RemapExecTime the CPU-side plan/pack/unpack ops.
	rep.MoveC, rep.MoveN = pr.sim.MoveStats(pr.mapping)
	remapOps := par.PredictRemapOps(len(f.M.Elems), rep.MoveC, rep.MoveN, f.Cfg.P, f.Cfg.Workers)
	rep.RemapOps = remapOps.Total
	rep.RemapCritOps = remapOps.Crit
	rep.RemapExecTime = remapOps.Time(f.Cfg.Model)
	rep.Gain = f.Cfg.Cost.Gain(rep.WmaxOld, rep.WmaxNew)
	pipeline := rep.RepartitionTime + rep.ReassignTime + rep.RemapExecTime
	rep.CostFull = redistCost(f.Cfg.Cost, f.D.Exchange, rep.Alive, rep.MoveC, rep.MoveN) + pipeline
	if f.Cfg.Overlap {
		// Latency tolerance: the CPU-side pipeline hides behind the
		// solver iterations; only the exposed remainder delays the
		// solution. The wire redistribution stays exposed.
		rep.OverlapTime = min(window, pipeline)
	}
	rep.Cost = rep.CostFull - rep.OverlapTime
	// The decision compares the reported quantities themselves, so the
	// report can never drift from it.
	if rep.Gain <= rep.Cost {
		rep.ImbalanceAfter = rep.ImbalanceBefore // discarded
		traceDecision(f.Cfg.Trace, rep.Gain, rep.MoveC, rep.MoveN, false)
		return rep, nil
	}
	rep.Accepted = true
	traceDecision(f.Cfg.Trace, rep.Gain, rep.MoveC, rep.MoveN, true)

	// Execute the remap: ownership follows the accepted mapping. The
	// overlapped cycle streams the payload one flow window at a time;
	// the paper-faithful baseline keeps the bulk-synchronous exchange.
	// Both produce byte-identical results up to PeakWords.
	newOwner := pr.owners(alive)
	var res par.RemapResult
	if f.Cfg.Overlap {
		res, err = f.D.ExecuteRemapStreaming(newOwner, f.Cfg.Model)
	} else {
		res, err = f.D.ExecuteRemap(newOwner, f.Cfg.Model)
	}
	if err != nil {
		var re *par.RemapError
		if errors.As(err, &re) {
			switch {
			case re.Failure == par.FailCrash:
				// Rank death: restore the cycle checkpoint and remap the
				// dead ranks' elements onto the survivors. The run
				// continues on fewer processors.
				if rerr := f.recoverCrash(&rep, re); rerr != nil {
					return rep, rerr
				}
				return rep, nil
			case re.Failure == par.FailTimeout:
				// A hung worker blew the stage deadline: the worker pool
				// is torn mid-stage and there is no deterministic state to
				// continue from. Surface the typed error.
				return rep, err
			case re.RolledBack:
				// Graceful degradation: the remap exhausted its recovery
				// budget and restored the pre-balance ownership, so the cycle
				// continues on the old partition. The new partitioning is
				// discarded exactly like a cost-rejected one — no remap
				// charge, the imbalance stays — and the failure is reported
				// in the outcome, not as an error.
				rep.Accepted = false
				rep.ImbalanceAfter = rep.ImbalanceBefore
				rep.FaultDetail = re.Error()
				f.rollbackStreak++
				rep.Outcome = OutcomeRolledBack
				if f.rollbackStreak >= DegradedStreak {
					rep.Outcome = OutcomeDegraded
				}
				traceRollback(f.Cfg.Trace, rep.Outcome, rep.FaultDetail)
				return rep, nil
			}
		}
		return rep, err
	}
	f.rollbackStreak = 0
	if res.Retries > 0 || res.WindowRetries > 0 {
		rep.Outcome = OutcomeRetriedCommitted
	}
	traceRemapExec(f.Cfg.Trace, "remap.exec", &res)
	rep.Remap = res
	return rep, nil
}

// proposal is one candidate redistribution over the surviving ranks: the
// new partitioning, its assignment to processors, and what computing the
// two cost.
type proposal struct {
	part      partition.Assignment
	partOps   machine.Ops
	sim       *remap.Similarity // LastOps holds the mapper's work
	mapping   remap.Mapping
	objective int64
}

// propose runs the sequence the balance pass and crash recovery share:
// repartition the dual graph into F parts per survivor, build the
// similarity matrix in the compacted survivor index space (identity when
// every rank is alive), and reassign the parts with the configured mapper.
func (f *Framework) propose(alive []int32) (proposal, error) {
	var pr proposal
	pr.part, pr.partOps = f.repartition(len(alive) * f.Cfg.F)
	pr.sim = remap.Build(f.compactOwners(alive), pr.part, f.G.Wremap, len(alive), f.Cfg.F)
	if f.Cfg.Mapper == MapperOptimal {
		pr.mapping, pr.objective = pr.sim.Optimal()
	} else {
		pr.mapping, pr.objective = pr.sim.Heuristic()
	}
	return pr, pr.sim.Validate(pr.mapping)
}

// owners returns the ownership the proposal assigns: every dual vertex
// goes to the survivor its part is mapped to.
func (pr proposal) owners(alive []int32) []int32 {
	out := make([]int32, len(pr.part))
	for v, p := range pr.part {
		out[v] = alive[pr.mapping[p]]
	}
	return out
}

// compactOwners returns the owner array mapped into the compacted
// survivor index space: alive[i] → i, dead ranks → −1 (no similarity
// credit — see remap.Build). With every rank alive it returns the
// owners unchanged.
func (f *Framework) compactOwners(alive []int32) []int32 {
	oldProc := f.D.Owners()
	if len(alive) == f.Cfg.P {
		return oldProc
	}
	compact := make([]int32, f.Cfg.P)
	for i := range compact {
		compact[i] = -1
	}
	for i, r := range alive {
		compact[r] = int32(i)
	}
	for v, o := range oldProc {
		oldProc[v] = compact[o]
	}
	return oldProc
}

// recoverCrash repairs a FailCrash rollback: restore the audited cycle
// checkpoint, mark the dead ranks, and remap their elements onto the
// survivors using the balancer's own machinery — the repartitioner
// produces the survivor partition, the mapper minimizes movement
// relative to the surviving owners (crashed-owned vertices carry no
// similarity, so they move wherever they land), and the ordinary bulk
// remap executor moves the records with its machine-model charges
// intact (par.ExecuteRemapRecovery). Recovery itself runs fault-free: it
// is the repair path, and re-drawing fates inside it could cascade
// forever. The crash set, the survivor plan, and the executed ownership
// are all pure functions of (plan, cycle, survivors), so the recovered
// state is byte-identical at any worker count and across repeat runs.
func (f *Framework) recoverCrash(rep *BalanceReport, re *par.RemapError) error {
	rep.Accepted = false
	rep.Outcome = OutcomeRecovered
	rep.FaultDetail = re.Error()
	rep.CrashedRanks = append([]int(nil), re.Crashed...)
	traceCrash(f.Cfg.Trace, re.Crashed)
	// The executor already rolled its transaction back; the checkpoint
	// restore is the audited path, and also recovers the outcome streak
	// captured before the pass started.
	if f.ck != nil {
		if st, ok := f.ck.Restore(); ok {
			f.D.SetOwners(st.Owners)
			f.rollbackStreak = st.Streak
			traceCkptRestore(f.Cfg.Trace, st.Cycle)
		}
	}
	f.D.MarkDead(re.Crashed)
	alive := f.D.Alive()
	if len(alive) < 1 {
		return fmt.Errorf("core: no surviving ranks after crash of %v", re.Crashed)
	}
	rep.Alive = len(alive)

	pr, err := f.propose(alive)
	if err != nil {
		return err
	}
	res, err := f.D.ExecuteRemapRecovery(pr.owners(alive), f.Cfg.Model)
	if err != nil {
		return fmt.Errorf("core: survivor recovery after crash of %v failed: %w", re.Crashed, err)
	}
	traceRemapExec(f.Cfg.Trace, "remap.recovery", &res)
	rep.Recovery = res
	f.rollbackStreak = 0

	// Report the post-recovery balance over the survivors.
	loads := f.aliveLoads(alive)
	rep.WmaxNew = slices.Max(loads)
	rep.ImbalanceAfter = par.ImbalanceFactor(loads)
	return nil
}

// redistCost is the acceptance rule's wire-redistribution term, the
// paper's prediction from C and N: C·M·Tlat + N·Tsetup under flat, with
// the setups capped at one combined message per live source,
// min(N, alive), under aggregated.
func redistCost(c remap.CostModel, x machine.Exchange, alive int, moved int64, sets int) float64 {
	if x == machine.ExchangeAggregated {
		sets = min(sets, alive)
	}
	return c.RedistCost(moved, sets)
}

// CycleReport records one full solution/adaption cycle.
type CycleReport struct {
	// SolverTime is the modeled time of the Config.SolverIters solver
	// iterations preceding adaption under the pre-adaption loads — the
	// same iteration count the proxy solver actually runs, and the window
	// the balance pipeline may hide behind when Config.Overlap is on.
	SolverTime float64
	// Refine holds the adaption statistics.
	Refine adapt.RefineStats
	// AdaptTime is the parallel adaption timing breakdown.
	AdaptTime par.AdaptTimings
	// Balance is the load-balancing pipeline report.
	Balance BalanceReport
	// Outcome mirrors Balance.Outcome — the cycle's conclusion under the
	// fault plan, surfaced at the top level for drivers.
	Outcome BalanceOutcome
}

// Cycle executes one pass of the paper's Fig. 1 loop: flow solution, edge
// marking via the supplied function, parallel mesh adaption, solution
// transfer, and the balance pipeline. With Config.Overlap on, the balance
// pipeline's CPU-side critical path is modeled as running concurrently
// with the solver iterations, and the acceptance rule charges only the
// exposed remainder.
func (f *Framework) Cycle(mark func(*adapt.Adaptor)) (CycleReport, error) {
	var rep CycleReport
	// Scope this cycle's fault keys: the adaption exchanges and the remap
	// payload both draw from the cycle's own schedule.
	f.D.FaultCycle = f.cycles
	traceCycleBegin(f.Cfg.Trace, f.cycles)
	f.cycles++
	loads := f.Loads()
	rep.SolverTime = f.Cfg.Cost.SolverTimeIters(slices.Max(loads), f.Cfg.SolverIters)
	if f.S != nil {
		// The proxy solve that produces the error field, running exactly
		// the iterations SolverTime modeled (one knob, see Config).
		f.S.Iterate(f.Cfg.SolverIters)
	}
	traceSolver(f.Cfg.Trace, rep.SolverTime, f.Cfg.SolverIters)
	mark(f.A)
	rep.Refine, rep.AdaptTime = f.D.ParallelRefine(f.A, f.Cfg.Model)
	if f.S != nil {
		f.S.SyncAfterAdaption()
	} else {
		f.M.ResetLog() // nobody consumes the log: keep it one cycle long
	}
	traceAdapt(f.Cfg.Trace, rep.AdaptTime)
	bal, err := f.balance(rep.SolverTime)
	if err != nil {
		traceCycleError(f.Cfg.Trace, err)
		return rep, err
	}
	bal.AdaptOps = rep.AdaptTime.Ops.Total
	bal.AdaptCritOps = rep.AdaptTime.Ops.Crit
	bal.AdaptExecTime = rep.AdaptTime.Ops.Time(f.Cfg.Model)
	rep.Balance = bal
	rep.Outcome = bal.Outcome
	traceCycleEnd(f.Cfg.Trace, rep.Outcome)
	recordCycleMetrics(f.Cfg.Metrics, f, &rep)
	return rep, nil
}

// ImprovementBound returns the paper's maximum possible improvement for P
// processors when one processor's N elements are all isotropically
// refined: 8P/(P+7) — the bound column of Fig. 12.
func ImprovementBound(p int) float64 {
	return 8 * float64(p) / (float64(p) + 7)
}
