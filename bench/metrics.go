package main

// metricDef names one reported metric. BENCHMARK.json declares the same
// names, units and directions (the smoke test holds the two together) and
// owns the end-to-end bounds.
type metricDef struct {
	Name, Unit, Better string
}

// The nine end-to-end metrics, reported per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_wall_s", "s", "lower"},
	{"elems_per_s", "elem/s", "higher"},
	{"allocs_per_run", "count", "lower"},
	{"alloc_bytes_per_run", "B", "lower"},
	{"live_heap_peak_bytes", "B", "lower"},
	{"modeled_run_s", "s", "lower"},
	{"imbalance_mean", "ratio", "lower"},
	{"cycles_ok_ratio", "ratio", "higher"},
}

// exactMetrics repeat bit for bit at a fixed seed, so -compare holds two
// runs of the same seed to equality on them instead of to the bound.
var exactMetrics = map[string]bool{"modeled_run_s": true, "imbalance_mean": true, "cycles_ok_ratio": true}

// hostLayer names the per-layer metrics read off the host clock or the Go
// runtime, beside the span times of spanMetrics. Every other per-layer
// metric is a count or a modeled time out of the cycle reports and repeats
// bit for bit at a fixed seed; -compare holds those to equality.
var hostLayer = map[string]bool{
	"meshgen.ns_per_elem": true, "par.refine_ns_per_new_elem": true,
	"core.balance_s": true, "par.remap_exec_s": true, "obs.export_s": true,
	"runtime.gc_cycles": true, "runtime.gc_pause_s": true, "trace.overhead_ratio": true,
}

func exactLayer(name string) bool {
	_, span := spanMetrics[name]
	return !span && !hostLayer[name]
}

// The per-layer metrics; the prefix is the module the number belongs to.
var perLayer = []metricDef{
	{"meshgen.build_s", "s", "lower"},
	{"meshgen.ns_per_elem", "ns", "lower"},
	{"dual.build_s", "s", "lower"},
	{"partition.initial_s", "s", "lower"},
	{"core.new_s", "s", "lower"},
	{"solver.iterate_s", "s", "lower"},
	{"solver.modeled_s", "s", "lower"},
	{"adapt.mark_s", "s", "lower"},
	{"adapt.marked_edges", "count", "lower"},
	{"par.refine_s", "s", "lower"},
	{"par.refine_new_elems", "count", "lower"},
	{"par.refine_ns_per_new_elem", "ns", "lower"},
	{"par.coarsen_s", "s", "lower"},
	{"par.coarsen_removed_elems", "count", "lower"},
	{"par.adapt_ops", "count", "lower"},
	{"par.adapt_rounds", "count", "lower"},
	{"par.adapt_msgs", "count", "lower"},
	{"par.adapt_words", "words", "lower"},
	{"par.adapt_modeled_s", "s", "lower"},
	{"mesh.active_elems", "count", "lower"},
	{"mesh.elem_slots", "count", "lower"},
	{"mesh.dead_slot_ratio", "ratio", "lower"},
	{"mesh.check_s", "s", "lower"},
	{"dual.update_weights_s", "s", "lower"},
	{"partition.repartition_s", "s", "lower"},
	{"partition.ops", "count", "lower"},
	{"partition.refine_ops", "count", "lower"},
	{"partition.modeled_s", "s", "lower"},
	{"partition.imbalance_proposed_worst", "ratio", "lower"},
	{"partition.edge_cut_final", "count", "lower"},
	{"remap.build_s", "s", "lower"},
	{"remap.heuristic_s", "s", "lower"},
	{"remap.sim_cells", "count", "lower"},
	{"remap.reassign_ops", "count", "lower"},
	{"remap.reassign_modeled_s", "s", "lower"},
	{"remap.accept_ratio", "ratio", "higher"},
	{"core.imbalance_worst", "ratio", "lower"},
	{"core.balance_s", "s", "lower"},
	{"par.remap_exec_s", "s", "lower"},
	{"par.remap_moved_elems", "count", "lower"},
	{"par.remap_words", "words", "lower"},
	{"par.remap_setups", "count", "lower"},
	{"par.remap_peak_words", "words", "lower"},
	{"par.remap_modeled_s", "s", "lower"},
	{"comm.msg_retries", "count", "lower"},
	{"comm.window_retries", "count", "lower"},
	{"comm.retry_words", "words", "lower"},
	{"fault.recovered_cycles", "count", "lower"},
	{"fault.rolled_back_cycles", "count", "lower"},
	{"fault.crashed_ranks", "count", "lower"},
	{"fault.alive_ranks_final", "count", "higher"},
	{"ckpt.captures", "count", "lower"},
	{"ckpt.restores", "count", "lower"},
	{"ckpt.full_words", "words", "lower"},
	{"ckpt.delta_words", "words", "lower"},
	{"ckpt.delta_ratio", "ratio", "higher"},
	{"obs.spans", "count", "lower"},
	{"obs.export_s", "s", "lower"},
	{"obs.export_bytes", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.fingerprint_match", "count", "higher"},
}
