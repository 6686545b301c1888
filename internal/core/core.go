// Package core implements the paper's framework for parallel adaptive flow
// computation (its Fig. 1): a flow solver and mesh adaptor coupled to a
// partitioner and mapper that redistribute the computational mesh when
// necessary. Each cycle runs the solver, marks the mesh and closes the
// marks, evaluates the load balance on the dual graph's weights as the
// marks will leave them, and — if the imbalance exceeds the threshold —
// repartitions, reassigns partitions to processors so as to minimize data
// movement, and accepts the remap only when the expected computational
// gain exceeds the redistribution cost; then it subdivides the mesh on the
// owners the balance left.
//
// The gain is the paper's, Titer·Nadapt·(Wmax_old − Wmax_new). The cost is
// the remap as the machine clock will charge it: the remap's (source,
// destination, elements) flows, counted once on the dual graph from the
// current and proposed owner arrays and Wremap (remap.Flows), priced by
// par.ChargeRemap, the function the executor charges every executed remap
// with — each rank's pack, wire and rebuild time, the slowest rank's
// total — plus the repartition and reassignment overheads, each its work
// on the machine model. An accepted pass hands that same flow list to the
// executor, so the remap term is the clock's own: when it executes
// without faults, its Remap.Total equals the predicted Total bit for bit;
// its pack and rebuild are the remap's execution, so nothing prices that
// twice. Every
// charge is a function of the mesh, P and the machine model. The
// paper's total-volume formula, C·M·Tlat + N·Tsetup, is reported beside
// it (BalanceReport.CostPaper); it prices every flow as if one rank sent
// them all, which at thousands of ranks overstates the remap by two
// orders of magnitude and rejects passes worth their cost.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/fault"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/obs"
	"plum/internal/par"
	"plum/internal/partition"
	"plum/internal/remap"
	"plum/internal/solver"
)

// Config parameterizes the framework. It names no mapper: the balance
// pass and crash recovery both assign partitions to processors with the
// paper's heuristic (remap.Similarity.Heuristic). The exact
// remap.Similarity.Optimal is the reference Fig. 10 measures it against.
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
	// Model is the machine model for timing: per-operation costs plus one
	// link level, on which every message pays Tsetup + words·Tlat. The
	// acceptance rule prices a proposal's redistribution with the function
	// that charges the executed remap (par.ChargeRemap): per-rank pack,
	// wire and rebuild time on this model, the slowest rank's total.
	Model machine.Model
	// Cost holds the solver constants of the gain side of the decision.
	Cost remap.CostModel
	// Seed drives any randomized components.
	Seed int64
	// Workers is ignored: every scan runs on one host thread.
	//
	// Deprecated: it goes when the benchmark stops setting it.
	Workers int
	// Exchange names the remap payload exchange schedule: "flat" (one
	// message per flow — the paper's semantics) or "aggregated" (one
	// combined frame per source rank). "" selects flat. It is a pricing
	// parameter: the owner array, the moved elements and the fault fates
	// are identical under both; only the modeled communication charges
	// and the acceptance rule's setup term differ. The adaption
	// notifications are always flat. New resolves the name once into
	// Framework.D.Exchange. See internal/machine.Exchange.
	Exchange string
	// SolverIters is the number of proxy flow-solver iterations each
	// cycle runs before adaption, and the multiplier of the modeled
	// CycleReport.SolverTime — one knob, so the proxy solve and the
	// modeled cost cannot disagree. 0 selects the default of 3; negative
	// is rejected by New.
	SolverIters int
	// Overlap hides the balance pipeline behind the solver, the paper's
	// latency-tolerance argument: the repartition + reassignment
	// pipeline runs concurrently with the modeled solver iterations on
	// the machine clock, and the acceptance rule charges only the exposed
	// (post-overlap) cost. False keeps the
	// paper-faithful strict barrier chain. Overlap only prices: the remap
	// executes the same way either way, and the partitions, owners and
	// moved elements are identical.
	Overlap bool
	// Faults is the deterministic fault-injection plan for the balance
	// cycles (internal/fault): the remap payload exchange and the
	// adaption notification exchanges draw their messages' fates from it
	// and are charged the modeled retry traffic, and a remap window whose
	// messages stay undelivered is retried or rolled back. nil — or
	// a zero-rate plan — keeps every report and every byte of mesh state
	// identical to the fault-free baseline. Each cycle draws an
	// independent schedule (the fault keys carry the cycle index).
	Faults *fault.Plan
	// Retry bounds the recovery effort when Faults is set: send attempts
	// per message and re-executions per failed remap window. The zero
	// value selects fault.DefaultRetry.
	Retry fault.Retry
	// Checkpoint is ignored: crash recovery starts from the pre-pass
	// ownership the failed remap left untouched.
	//
	// Deprecated: it goes when the benchmark stops setting it.
	Checkpoint bool
	// Trace, when non-nil, records per-stage spans and events on the
	// modeled timeline as the cycles run — solver, adaption phases,
	// repartition, reassignment, remap execution with per-rank
	// send/rebuild tracks, fault retries, crash recovery.
	// Exports are byte-identical run to run. nil (the
	// default) disables tracing: every emission on a nil trace returns at
	// once and allocates nothing. Not safe for concurrent Frameworks; give each
	// its own Trace.
	Trace *obs.Trace
	// Metrics, when non-nil, accumulates framework counters and gauges
	// (cycles, outcomes, ops, moved elements, retries, imbalance) after
	// each completed cycle, for Prometheus text dumps. Same determinism
	// contract as Trace; nil disables it.
	Metrics *obs.Registry
}

// DefaultConfig returns the configuration used throughout the experiments:
// F=1, threshold 1.2, multilevel partitioner, SP2 machine constants.
func DefaultConfig(p int) Config {
	return Config{
		P:                  p,
		F:                  1,
		ImbalanceThreshold: 1.2,
		Method:             partition.MethodMultilevel,
		Model:              machine.SP2(),
		Cost:               remap.DefaultSP2(),
		Seed:               1,
		SolverIters:        3,
	}
}

// Framework couples the mesh, its dual graph, the distributed view, the
// adaptor, (optionally) a proxy flow solver, and the one repartitioner
// the balance pass and crash recovery share.
type Framework struct {
	// Cfg is the configuration New resolved: the method and seed into the
	// repartitioner, and the exchange, fault plan and retry
	// budget into D. Editing it later re-resolves none of them; build a
	// new Framework from the changed Config.
	Cfg Config
	M   *mesh.Mesh
	G   *dual.Graph
	D   *par.Dist
	A   *adapt.Adaptor
	S   *solver.Solver

	// part repartitions G with Cfg.Method and charges every method's
	// work (the paper times only reassignment and remap, which flatters
	// its spectral partitioner), the curve build on the first pass.
	part *partition.Repartitioner
	// flows sums each remap's flow list (remap.Flows) and each
	// proposal's similarity matrix (remap.Similarity.Rebuild), kept warm
	// across passes so counting either allocates nothing.
	flows machine.Pairs
	// The rest of the balance pass's scratch, kept across passes so a
	// warm pass allocates nothing: sim is the proposal's similarity
	// matrix with the mapper's scratch, newOwner its rank-space owner
	// array (proposal.owners), loads the per-rank loads (rankLoads), and
	// compact the owners in survivor positions (compactOwners, once a
	// rank has died).
	sim               remap.Similarity
	newOwner, compact []int32
	loads             []int64
	// moving is the Wremap of the trees as they stand, kept by Cycle while
	// G holds the weights predicted for its closed marks: the remap moves
	// the trees before they are subdivided.
	moving []int64

	// cycles counts completed Cycle calls; it scopes the fault keys so
	// each cycle draws an independent schedule (par.Dist.FaultCycle).
	cycles int
	// rollbackStreak counts consecutive rolled-back balance passes; at
	// DegradedStreak the outcome escalates to OutcomeDegraded. A
	// committed remap resets it.
	rollbackStreak int
}

// CheckpointStats returns zero counters: there is no cycle checkpoint.
//
// Deprecated: it goes when the benchmark stops reading it.
func (f *Framework) CheckpointStats() (st struct{ Captures, Restores, FullWords, DeltaWords int64 }) {
	return st
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
	if !slices.Contains(partition.Methods, cfg.Method) {
		return nil, fmt.Errorf("core: unknown method %d (have %v)", int(cfg.Method), partition.Methods)
	}
	if math.IsNaN(cfg.ImbalanceThreshold) {
		// imb > NaN is always false: the balancer would never run.
		return nil, errors.New("core: ImbalanceThreshold is NaN")
	}
	exch, err := machine.ExchangeByName(cfg.Exchange)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	g := dual.Build(m)
	fw := &Framework{
		Cfg: cfg,
		M:   m,
		G:   g,
		A:   adapt.New(m),
		S:   sol,
	}
	// The initial partition is not charged: the first balance pass pays
	// for the curve order it reuses.
	fw.part = partition.NewRepartitioner(g, cfg.Method, partition.Options{Seed: cfg.Seed})
	d := par.NewDist(m, cfg.P, fw.part.Initial(cfg.P))
	d.Exchange = exch     // the remap payload exchange schedule
	d.Faults = cfg.Faults // fault plan + recovery budget for the balance cycles
	d.Retry = cfg.Retry
	d.Trace = cfg.Trace // per-rank remap spans + streaming window events
	fw.D = d
	return fw, nil
}

// Loads returns the per-processor computational weight under the current
// ownership: the projection of the mesh's Wcomp, as it stands, onto the
// current partitions (the paper's preliminary evaluation). It refreshes
// the dual weights first, so it is right whatever adapted the mesh since
// the last balance pass, as Balance and the end of Cycle do.
// The slice is f's own, valid until f's next Loads, Balance or Cycle.
func (f *Framework) Loads() []int64 {
	f.G.UpdateWeights(f.M)
	return f.rankLoads(f.D.OwnersView())
}

// rankLoads returns the per-rank sums of the dual weights under owners,
// in f's loads scratch.
func (f *Framework) rankLoads(owners []int32) []int64 {
	f.loads = slices.Grow(f.loads[:0], f.Cfg.P)[:f.Cfg.P]
	clear(f.loads)
	for v, o := range owners {
		f.loads[o] += f.G.Wcomp[v]
	}
	return f.loads
}

// aliveLoads compacts the rank-indexed loads to the ranks in alive, in
// place, and returns them indexed by position in alive. alive ascends, so
// every load moves down or stays, past the ones still to be read.
func aliveLoads(loads []int64, alive []int32) []int64 {
	for i, r := range alive {
		loads[i] = loads[r]
	}
	return loads[:len(alive)]
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
	// fault-free result, but only after message or window retries.
	OutcomeRetriedCommitted
	// OutcomeRecovered: one or more ranks crashed mid-remap; starting
	// from the pre-pass ownership the failed remap left untouched, the
	// pass remapped the dead ranks' elements onto the survivors with the
	// balancer's own partitioner + remap machinery. The run continues on
	// fewer processors with every element survivor-owned and the total
	// weight conserved.
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

// MarshalText spells the outcome by its String name in JSON.
func (o BalanceOutcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

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
	// WmaxFloor is the granularity floor of the pass: the lowest Wmax any
	// assignment of the dual vertices (whole refinement trees) to the
	// Alive ranks can reach, max(max Wcomp, ⌈ΣWcomp/Alive⌉). A pass over
	// the threshold with WmaxOld at the floor skips repartitioning, since
	// no proposal could gain (Repartitioned stays false). Zero when the
	// imbalance was within the threshold.
	WmaxFloor int64
	// Objective is the mapper's 𝒥. The cost model's C (elements moved)
	// and N (element sets moved) are Predicted.Moved and Predicted.Sets.
	Objective int64
	// RepartitionOps is the partitioner's work including refinement,
	// the survivor repartition's included on a Recovered pass. Every
	// backend reports nonzero work.
	RepartitionOps int64
	// RefineOps is the memory-bound refinement share of RepartitionOps
	// (multilevel's classic FM sweeps, the one refiner a partitioner
	// still runs), priced at Model.MemOp; the compute-bound remainder
	// (key encoding, sorts, curve cuts, coarsening, level-set bisection,
	// diffusion scans, solves and peels) is priced at Model.CompOp. Both
	// count each op once, however many ranks the schedule below runs it
	// on.
	RefineOps int64
	// RepartitionTime is the modeled wall clock of the repartition, the
	// sum over the pass's proposals of the seconds each
	// partition.Repartitioner.Repartition returned, each the duration of
	// its repartition span. Multilevel's rebalance of the owners runs on
	// the parts' ranks (partition/schedule.go): each part scans its own
	// vertices, the part graph is allgathered and its flows solved on
	// every rank, the peels follow the flow DAG, and only the closing FM
	// is priced serially. The curve cuts and multilevel's from-scratch
	// chain run on one rank, priced at (Total−Mem)·CompOp + Mem·MemOp.
	RepartitionTime float64
	// ReassignOps and ReassignTime describe the mapper's work
	// (similarity-matrix scans: memory-bound, charged at Model.MemOp),
	// the survivor reassignment's included on a Recovered pass.
	ReassignOps  int64
	ReassignTime float64
	// Gain and Cost are the two sides of the acceptance test; Accepted
	// reports whether the remap was executed. Cost is the *exposed* cost:
	// CostFull minus OverlapTime. Without overlap the two are equal.
	//
	// Gain counts the paper's horizon, Cost.Nadapt solver iterations to
	// the next adaption (100), while the cycle's clock charges
	// Config.SolverIters (3) per cycle: the rule keeps the paper's
	// amortization argument — a partition is kept for the iterations it
	// will serve in a production run — rather than the proxy solve's
	// shortened one.
	Gain, Cost float64
	Accepted   bool
	// CostFull is the serial (non-overlapped) cost side: Predicted.Total
	// plus the pipeline, the repartition and reassignment overheads. It is
	// what the acceptance rule charges when Config.Overlap is off.
	CostFull float64
	// Predicted is the remap the rule priced: par.ChargeRemap of the
	// remap's flow list (remap.Flows of the current and proposed owners
	// and Wremap), the slowest rank's pack, wire and rebuild time on the
	// same clock that charges the executed remap. An accepted pass
	// executes that same list, so when it runs fault-free, Remap's Moved,
	// Sets, WordsMoved, Setups and every time field equal these bit for
	// bit.
	Predicted par.RemapResult
	// CostPaper is the paper's redistribution formula for the same
	// mapping, C·M·Tlat + N·Tsetup over the total volume (setups capped
	// at one per live source under aggregated). It is reported, not
	// charged: the total volume overprices a remap whose flows spread
	// over many ranks, by 157× and 170× on the two remaps of
	// `plum -p 2048 -partitioner hilbert -cycles 3`.
	CostPaper float64
	// OverlapTime is the portion of the balance pipeline (repartition +
	// reassignment) hidden behind the cycle's modeled solver iterations
	// when Config.Overlap is on: min(SolverTime, pipeline). The predicted remap itself stays
	// exposed — element state can only move once the overlapped
	// iterations have finished with it. Zero when overlap is off or when
	// Balance runs outside a cycle (no solve to hide behind).
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
	// dead ranks' elements, as the untouched pre-pass ownership places
	// them, exchanged onto the P−|crashed| survivors through the ordinary
	// remap executor, with its machine-model charges (ChargeElemFlows under
	// the configured exchange schedule) intact. Zero unless Outcome is
	// Recovered. The survivor repartition and reassignment that planned
	// it are charged into RepartitionOps/Time and ReassignOps/Time.
	Recovery par.RemapResult
}

// PipelineTime is the balance pipeline's overhead on the cost side:
// RepartitionTime + ReassignTime. CostFull charges it beside
// Predicted.Total, and with Config.Overlap it is what may hide behind the
// solver (OverlapTime).
func (b *BalanceReport) PipelineTime() float64 {
	return b.RepartitionTime + b.ReassignTime
}

// Balance runs the repartitioning / reassignment / cost-decision /
// remapping pipeline of the framework once, on the mesh as it stands.
// When the current partitions are adequately balanced, or when the
// redistribution cost exceeds the expected gain, the mesh distribution is
// left untouched (the paper discards the new partitioning in that case).
//
// A standalone Balance has no solver phase to hide behind, so even with
// Config.Overlap the acceptance rule charges the full cost (OverlapTime
// is zero); Cycle passes its modeled solver time as the overlap window.
func (f *Framework) Balance() (BalanceReport, error) {
	f.G.UpdateWeights(f.M)
	return f.balance(0, f.G.Wremap)
}

// balance is the pipeline on the dual weights G holds, with an explicit
// overlap window, the modeled solver time the balance pipeline may hide
// behind when Config.Overlap is on, and the Wremap of the trees as they
// stand, moving. The loads, the partitioner and the similarity matrix read
// G; the remap's flows, and so its price, its execution and crash
// recovery's, read moving. Balance passes G's own Wremap; Cycle passes the
// weights before its subdivision, while G holds the prediction.
func (f *Framework) balance(window float64, moving []int64) (BalanceReport, error) {
	var rep BalanceReport
	rep.Exchange = f.D.Exchange
	tr := f.Cfg.Trace
	// All balance targets are the surviving ranks: after a crash the run
	// continues on fewer processors, and dead ranks must never appear in
	// an imbalance denominator or receive a partition. With every rank
	// alive the compaction is the identity and every float below is
	// bit-identical to the legacy arithmetic.
	alive := f.D.Alive()
	rep.Alive = len(alive)
	loads := aliveLoads(f.rankLoads(f.D.OwnersView()), alive)
	rep.ImbalanceBefore = par.ImbalanceFactor(loads)
	rep.ImbalanceAfter = rep.ImbalanceBefore
	rep.WmaxOld = slices.Max(loads)
	if rep.ImbalanceBefore > f.Cfg.ImbalanceThreshold {
		// At the granularity floor no proposal has WmaxNew < WmaxOld, so
		// its gain is ≤ 0 ≤ cost and the rule would reject it: skip the
		// repartition and reassignment it would be charged for.
		alive64 := int64(rep.Alive)
		rep.WmaxFloor = max(slices.Max(f.G.Wcomp), (f.G.TotalWcomp()+alive64-1)/alive64)
		rep.Repartitioned = rep.WmaxOld > rep.WmaxFloor
	}
	tr.Event("info", "balance.evaluate",
		obs.Float("imbalance", rep.ImbalanceBefore), obs.Bool("repartition", rep.Repartitioned))
	if !rep.Repartitioned {
		return rep, nil
	}

	// Repartition the dual graph into S·F parts over the S survivors and
	// reassign the parts to them.
	pr, err := f.propose(alive)
	if err != nil {
		return rep, err
	}
	rep.Objective = pr.objective
	f.charge(&rep, pr, len(alive))

	// One rank-space owner array carries the proposal from here on: its
	// loads, its flows, and the remap that executes it.
	newOwner := pr.owners(alive)
	newLoads := aliveLoads(f.rankLoads(newOwner), alive)
	rep.WmaxNew = slices.Max(newLoads)
	rep.ImbalanceAfter = par.ImbalanceFactor(newLoads)

	// Gain/cost decision. The redistribution is priced by the function
	// that charges the executed remap (par.ChargeRemap) on the remap's
	// flow list, counted once on the dual graph (remap.Flows of the two
	// owner arrays and the moving Wremap) and then handed to the executor: the
	// slowest rank's pack + wire + rebuild, which is the executed
	// Remap.Total bit for bit on the fault-free path. The cost side also
	// carries the balancing overhead (repartition + reassignment work) —
	// negligible for the incremental SFC path, which is the point of
	// modeling it.
	flows := remap.Flows(&f.flows, f.D.OwnersView(), newOwner, moving)
	rep.Predicted = f.D.ChargeRemap(flows, f.Cfg.Model)
	moved, sets := rep.Predicted.Moved, rep.Predicted.Sets
	rep.CostPaper = redistCost(f.Cfg.Model, f.D.Exchange, rep.Alive, moved, sets)
	rep.Gain = f.Cfg.Cost.Gain(rep.WmaxOld, rep.WmaxNew)
	pipeline := rep.PipelineTime()
	rep.CostFull = rep.Predicted.Total + pipeline
	if f.Cfg.Overlap {
		// Latency tolerance: the CPU-side pipeline hides behind the
		// solver iterations; only the exposed remainder delays the
		// solution. The predicted remap stays exposed.
		rep.OverlapTime = min(window, pipeline)
	}
	rep.Cost = rep.CostFull - rep.OverlapTime
	// The decision compares the reported quantities themselves, so the
	// report can never drift from it.
	rep.Accepted = rep.Gain > rep.Cost
	tr.Event("info", "remap.decide",
		obs.Float("gain", rep.Gain), obs.Int("moved", moved), obs.Int("sets", int64(sets)),
		obs.Bool("accepted", rep.Accepted))
	if !rep.Accepted {
		rep.ImbalanceAfter = rep.ImbalanceBefore // discarded
		return rep, nil
	}

	// Execute the remap: ownership follows the accepted mapping, along
	// the flows the decision priced.
	res, err := f.D.ExecuteRemap(newOwner, flows, f.Cfg.Model)
	if err != nil {
		var re *par.RemapError
		if errors.As(err, &re) {
			switch {
			case re.Failure == par.FailCrash:
				// Rank death: the executor left the pre-pass owners;
				// remap the dead ranks' elements onto the survivors. The
				// run continues on fewer processors.
				if rerr := f.recoverCrash(&rep, re, moving); rerr != nil {
					return rep, rerr
				}
				return rep, nil
			case re.Failure == par.FailTransfer:
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
				level := "warn"
				if rep.Outcome == OutcomeDegraded {
					level = "error"
				}
				tr.Event(level, "balance.rollback",
					obs.String("outcome", rep.Outcome.String()), obs.String("detail", rep.FaultDetail))
				return rep, nil
			}
		}
		return rep, err
	}
	f.rollbackStreak = 0
	if res.Retries > 0 || res.WindowRetries > 0 {
		rep.Outcome = OutcomeRetriedCommitted
	}
	traceRemapExec(tr, execStages, &res)
	rep.Remap = res
	return rep, nil
}

// proposal is one candidate redistribution over the surviving ranks: the
// new partitioning, its assignment to processors, and what computing the
// two cost. Its slices are the framework's scratch, valid until the next
// propose.
type proposal struct {
	part      partition.Assignment
	partOps   machine.Ops // the partitioner's work
	partTime  float64     // its modeled seconds
	sim       *remap.Similarity
	mapping   remap.Mapping
	objective int64
	mapOps    int64   // the mapper's work
	newOwner  []int32 // where owners writes the rank-space owners
}

// propose runs the sequence the balance pass and crash recovery share:
// repartition the dual graph into F parts per survivor, build the
// similarity matrix in the compacted survivor index space (identity when
// every rank is alive), and reassign the parts with the paper's heuristic
// mapper. With F = 1 the repartitioner starts from the compacted owners:
// multilevel rebalances them unless they name a dead rank (crash
// recovery), and partitions from scratch then.
func (f *Framework) propose(alive []int32) (proposal, error) {
	var pr proposal
	old := f.compactOwners(alive)
	var from []int32
	if f.Cfg.F == 1 {
		from = old
	}
	pr.part, pr.partOps, pr.partTime = f.part.Repartition(len(alive)*f.Cfg.F, from, f.Cfg.Model)
	f.sim.Rebuild(&f.flows, old, pr.part, f.G.Wremap, len(alive), f.Cfg.F)
	pr.sim = &f.sim
	pr.mapping, pr.objective, pr.mapOps = pr.sim.Heuristic()
	f.newOwner = slices.Grow(f.newOwner[:0], len(pr.part))[:len(pr.part)]
	pr.newOwner = f.newOwner
	return pr, pr.sim.Validate(pr.mapping)
}

// charge adds the proposal's repartition and reassignment over the given
// survivor count to the pass's ops and times, and records each as a span
// of its price, advancing the cursor past both.
func (f *Framework) charge(rep *BalanceReport, pr proposal, alive int) {
	tr, mdl := f.Cfg.Trace, f.Cfg.Model
	rep.RepartitionOps += pr.partOps.Total
	rep.RefineOps += pr.partOps.Mem
	rep.RepartitionTime += pr.partTime
	traceRepartition(tr, pr.partOps, pr.partTime, alive*f.Cfg.F)
	reassign := float64(pr.mapOps) * mdl.MemOp
	rep.ReassignOps += pr.mapOps
	rep.ReassignTime += reassign
	tr.Span(obs.FrameworkRank, "reassign", tr.Now(), reassign,
		obs.Int("ops", pr.mapOps), obs.Int("objective", pr.objective))
	tr.Advance(reassign)
}

// owners returns the ownership the proposal assigns, in its newOwner
// scratch: every dual vertex goes to the survivor its part is mapped to.
func (pr proposal) owners(alive []int32) []int32 {
	out := pr.newOwner
	for v, p := range pr.part {
		out[v] = alive[pr.mapping[p]]
	}
	return out
}

// compactOwners returns the owner array mapped into the compacted
// survivor index space: alive[i] → i, dead ranks → −1 (no similarity
// credit — see remap.Build), in f's compact scratch. With every rank alive
// it returns the owner array itself, uncopied and read-only
// (par.Dist.OwnersView).
func (f *Framework) compactOwners(alive []int32) []int32 {
	owners := f.D.OwnersView()
	if len(alive) == f.Cfg.P {
		return owners
	}
	f.compact = slices.Grow(f.compact[:0], len(owners))[:len(owners)]
	for v, o := range owners {
		f.compact[v] = -1
		if i, ok := slices.BinarySearch(alive, o); ok {
			f.compact[v] = int32(i)
		}
	}
	return f.compact
}

// recoverCrash repairs a FailCrash rollback: the executor failed the
// remap before any owner flipped, so the pre-pass ownership is the
// recovery point. It marks the dead ranks and remaps their elements onto
// the survivors using the balancer's own machinery — the repartitioner
// produces the survivor partition, the mapper minimizes movement
// relative to the surviving owners (crashed-owned vertices carry no
// similarity, so they move wherever they land), and the ordinary bulk
// remap executor moves the records with its machine-model charges
// intact (par.ExecuteRemapRecovery). Recovery itself runs fault-free: it
// is the repair path, and re-drawing fates inside it could cascade
// forever. The crash set, the survivor plan, and the executed ownership
// are all pure functions of (plan, cycle, survivors), so the recovered
// state is byte-identical across repeat runs. Like the failed remap, the
// survivor remap moves the trees as they stand, whose Wremap is moving.
//
// The survivor repartition and reassignment run through propose and are
// charged like a balance pass's, on top of the failed proposal's: the
// pass paid for both. The repartitioner needs no reset for the smaller
// k, since nothing it caches depends on k.
func (f *Framework) recoverCrash(rep *BalanceReport, re *par.RemapError, moving []int64) error {
	rep.Accepted = false
	rep.Outcome = OutcomeRecovered
	rep.FaultDetail = re.Error()
	rep.CrashedRanks = append([]int(nil), re.Crashed...)
	tr := f.Cfg.Trace
	for _, r := range re.Crashed {
		tr.Event("error", "rank.crash", obs.Int("rank", int64(r)))
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
	f.charge(rep, pr, len(alive))
	// The flows leave the pre-pass owners, so the dead ranks' vertices
	// are re-sourced onto the survivors they land on.
	owners := pr.owners(alive)
	flows := remap.Flows(&f.flows, f.D.OwnersView(), owners, moving)
	res, err := f.D.ExecuteRemapRecovery(owners, flows, f.Cfg.Model)
	if err != nil {
		return fmt.Errorf("core: survivor recovery after crash of %v failed: %w", re.Crashed, err)
	}
	traceRemapExec(tr, recoveryStages, &res)
	rep.Recovery = res
	f.rollbackStreak = 0

	// Report the post-recovery balance over the survivors.
	loads := aliveLoads(f.rankLoads(owners), alive)
	rep.WmaxNew = slices.Max(loads)
	rep.ImbalanceAfter = par.ImbalanceFactor(loads)
	return nil
}

// redistCost is the paper's redistribution formula, reported beside the
// price the rule charges (BalanceReport.CostPaper): C·M·Tlat + N·Tsetup
// under flat, with the setups capped at one combined message per live
// source, min(N, alive), under aggregated.
func redistCost(mdl machine.Model, x machine.Exchange, alive int, moved int64, sets int) float64 {
	if x == machine.ExchangeAggregated {
		sets = min(sets, alive)
	}
	return mdl.RedistCost(moved, sets)
}

// CycleReport records one full solution/adaption cycle.
type CycleReport struct {
	// SolverTime is the modeled time of the Config.SolverIters solver
	// iterations preceding adaption under the loads the cycle finds
	// (Loads: the mesh as it stands, a coarsening before the cycle
	// included) — the same iteration count the proxy solver actually runs,
	// and the window the balance pipeline may hide behind when
	// Config.Overlap is on.
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

// CoarsenMarksError is Cycle's refusal of a mark function that left Marks
// coarsen marks: the cycle only refines, so coarsen before it
// (par.Dist.ParallelCoarsen) instead.
type CoarsenMarksError struct{ Marks int }

func (e *CoarsenMarksError) Error() string {
	return fmt.Sprintf("core: mark left %d coarsen marks, and Cycle only refines: coarsen before the cycle", e.Marks)
}

// CarryRoundError reports a Cycle whose subdivision took a carry round
// (adapt.Adaptor.Subdivide): it created Created elements, where the first
// round's patterns, which the balance pass read (dual.Graph.PredictWeights),
// predicted Predicted. A conforming mesh never needs one. The cycle ran to
// its end, and the dual weights were read from the subdivided mesh, but
// the balance pass priced a partition on weights short of it.
type CarryRoundError struct{ Predicted, Created int64 }

func (e *CarryRoundError) Error() string {
	return fmt.Sprintf("core: the subdivision took a carry round: it created %d elements, the balance read %d", e.Created, e.Predicted)
}

// Cycle executes one pass of the paper's Fig. 1 loop in the paper's order:
// flow solution, edge marking via the supplied function (a coarsen mark
// fails the cycle with a *CoarsenMarksError before the mesh changes), the
// marks' closure on the current owners (par.Dist.CloseRefine), the balance
// pipeline on the weights the closed marks predict
// (dual.Graph.PredictWeights), and the subdivision on the owners the
// balance left (par.Dist.FinishRefine), with the solution transfer. The
// partition and the mapping are those of balancing after the subdivision,
// since the weights are; the remap moves the trees before they are
// subdivided, and the subdivision is charged on the balanced owners. With
// Config.Overlap on, the balance pipeline's repartition and reassignment
// are modeled as running concurrently with the solver iterations, and the
// acceptance rule charges only the exposed remainder.
func (f *Framework) Cycle(mark func(*adapt.Adaptor)) (CycleReport, error) {
	var rep CycleReport
	// Scope this cycle's fault keys: the adaption exchanges and the remap
	// payload both draw from the cycle's own schedule.
	f.D.FaultCycle = f.cycles
	tr := f.Cfg.Trace
	tr.Begin("cycle", obs.Int("cycle", int64(f.cycles)))
	f.cycles++
	fail := func(err error) (CycleReport, error) {
		tr.Event("error", "cycle.error", obs.String("err", err.Error()))
		tr.End(obs.String("outcome", "error"))
		return rep, err
	}
	loads := f.Loads()
	rep.SolverTime = f.Cfg.Cost.SolverTimeIters(slices.Max(loads), f.Cfg.SolverIters)
	if f.S != nil {
		// The proxy solve that produces the error field, running exactly
		// the iterations SolverTime modeled (one knob, see Config).
		f.S.Iterate(f.Cfg.SolverIters)
	}
	tr.Span(obs.FrameworkRank, "solver", tr.Now(), rep.SolverTime, obs.Int("iters", int64(f.Cfg.SolverIters)))
	tr.Advance(rep.SolverTime)
	mark(f.A)
	coarsen := 0
	for _, mk := range f.A.MarksSnapshot() {
		if mk == adapt.MarkCoarsen {
			coarsen++
		}
	}
	if coarsen > 0 {
		return fail(&CoarsenMarksError{Marks: coarsen})
	}
	pend := f.D.CloseRefine(f.A, f.Cfg.Model)
	traceAdaptClose(tr, pend.Timings())
	f.moving = append(f.moving[:0], f.G.Wremap...)
	predicted := f.G.PredictWeights(f.A)
	bal, balErr := f.balance(rep.SolverTime, f.moving)
	rep.Refine, rep.AdaptTime = f.D.FinishRefine(&pend)
	if f.S != nil {
		f.S.SyncAfterAdaption()
	} else {
		f.M.ResetLog() // nobody consumes the log: keep it one cycle long
	}
	f.G.UpdateWeights(f.M) // the subdivided mesh replaces the prediction
	traceAdaptFinish(tr, rep.AdaptTime)
	if balErr != nil {
		return fail(balErr)
	}
	rep.Balance = bal
	rep.Outcome = bal.Outcome
	if created := int64(rep.Refine.NewElems); created != predicted {
		return fail(&CarryRoundError{Predicted: predicted, Created: created})
	}
	tr.End(obs.String("outcome", rep.Outcome.String()))
	recordCycleMetrics(f.Cfg.Metrics, f, &rep)
	return rep, nil
}

// ImprovementBound returns the paper's maximum possible improvement for P
// processors when one processor's N elements are all isotropically
// refined: 8P/(P+7) — the bound column of Fig. 12.
func ImprovementBound(p int) float64 {
	return 8 * float64(p) / (float64(p) + 7)
}
