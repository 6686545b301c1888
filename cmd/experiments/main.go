// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Select a single experiment with -exp or run all.
//
//	go run ./cmd/experiments            # everything
//	go run ./cmd/experiments -exp fig8  # one figure
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"plum/internal/core"
	"plum/internal/experiments"
	"plum/internal/machine"
	"plum/internal/obs"
	"plum/internal/propagate"
	"plum/internal/refine"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, fig8, fig9, fig10, fig11, fig12, extension, partitioners, remap, adapt, overlap, faults, recover, comm, all")
	k := flag.Int("k", 16, "partition count for -exp partitioners")
	faultSeed := flag.Int64("fault-seed", 7, "fault schedule seed for -exp faults")
	workers := flag.Int("workers", 0, "worker goroutines for parallel partitioning, refinement, and adaption phases (0 = GOMAXPROCS)")
	refiner := flag.String("refiner", "", "boundary-refinement backend for -exp partitioners: "+strings.Join(refine.Names, ", ")+" ('' = per-backend default)")
	propg := flag.String("propagator", "", "frontier-propagation backend for -exp adapt: "+strings.Join(propagate.Names, ", ")+" ('' = bulksync)")
	exchange := flag.String("exchange", "", "remap exchange schedule for -exp comm: "+strings.Join(machine.ExchangeNames, ", ")+" ('' = sweep all)")
	jsonOut := flag.Bool("json", false, "emit the selected experiments as one JSON object keyed by name instead of text tables")
	traceF := flag.String("trace", "", "write a combined deterministic trace of the cycle-driving experiments (faults, recover, overlap) to this file")
	traceFm := flag.String("trace-format", "perfetto", "trace export format: perfetto or jsonl")
	metricF := flag.String("metrics", "", "write a Prometheus text-format metrics dump of the cycle-driving experiments to this file")
	flag.Parse()
	if !slices.Contains(obs.TraceFormats, *traceFm) {
		fmt.Fprintf(os.Stderr, "unknown -trace-format %q (have %s)\n", *traceFm, strings.Join(obs.TraceFormats, ", "))
		os.Exit(2)
	}
	if *k < 1 {
		fmt.Fprintf(os.Stderr, "invalid -k %d: need at least 1 partition\n", *k)
		os.Exit(2)
	}
	// The backend names resolve here, once; the runners take typed values.
	var forced refine.Refiner
	if *refiner != "" {
		var ok bool
		if forced, ok = refine.ByName(*refiner, *workers); !ok {
			fmt.Fprintf(os.Stderr, "unknown refiner %q (have %s)\n", *refiner, strings.Join(refine.Names, ", "))
			os.Exit(2)
		}
	}
	prop, ok := propagate.ByName(*propg)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown propagator %q (have %s)\n", *propg, strings.Join(propagate.Names, ", "))
		os.Exit(2)
	}
	var schedules []machine.Exchange
	if *exchange != "" {
		x, err := machine.ExchangeByName(*exchange)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unknown exchange %q (have %s)\n", *exchange, strings.Join(machine.ExchangeNames, ", "))
			os.Exit(2)
		}
		schedules = []machine.Exchange{x}
	}

	runners := []struct {
		name string
		run  func() fmt.Stringer
	}{
		{"table1", func() fmt.Stringer { return experiments.RunTable1() }},
		{"fig8", func() fmt.Stringer { return experiments.RunFig8() }},
		{"fig9", func() fmt.Stringer { return experiments.RunFig9() }},
		{"fig10", func() fmt.Stringer { return experiments.RunFig10() }},
		{"fig11", func() fmt.Stringer { return experiments.RunFig11() }},
		{"fig12", func() fmt.Stringer { return experiments.RunFig12() }},
		{"extension", func() fmt.Stringer { return experiments.RunExtensionRepeated(8, 6) }},
		{"partitioners", func() fmt.Stringer { return experiments.RunPartitionerTable(*k, *workers, forced) }},
		{"remap", func() fmt.Stringer { return experiments.RunRemapExecTable(*workers) }},
		{"adapt", func() fmt.Stringer { return experiments.RunAdaptTable(*workers, prop) }},
		{"overlap", func() fmt.Stringer { return experiments.RunOverlapTable(*workers) }},
		{"faults", func() fmt.Stringer { return experiments.RunFaultTable(*faultSeed, *workers) }},
		{"recover", func() fmt.Stringer { return experiments.RunRecoverTable(*faultSeed, *workers) }},
		{"comm", func() fmt.Stringer { return experiments.RunCommTable(schedules...) }},
	}

	// The observability sinks: the cycle-driving runners (faults, recover,
	// overlap) attach them to every framework they build.
	var tr *obs.Trace
	var reg *obs.Registry
	if *traceF != "" {
		tr = obs.NewTrace()
	}
	if *metricF != "" {
		reg = obs.NewRegistry()
		core.RegisterHelp(reg)
	}
	experiments.SetObs(tr, reg)

	ran := false
	results := map[string]any{}
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		t0 := time.Now()
		out := r.run()
		if *jsonOut {
			// One object keyed by experiment name; the rows are the same
			// structs the text tables render.
			results[r.name] = out
			fmt.Fprintf(os.Stderr, "[%s regenerated in %v]\n", r.name, time.Since(t0).Round(time.Millisecond))
			continue
		}
		fmt.Println(out)
		fmt.Printf("[%s regenerated in %v]\n\n", r.name, time.Since(t0).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
	}
	if err := obs.WriteFiles(*traceF, *traceFm, tr, *metricF, reg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
