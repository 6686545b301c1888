// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Select experiments with -exp or run all.
//
//	go run ./cmd/experiments                 # everything
//	go run ./cmd/experiments -exp fig8       # one figure
//	go run ./cmd/experiments -exp fig9,fig12 # a list, in one process
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"plum/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run: table1, fig8, fig9, fig10, fig11, fig12, extension, partitioners, overlap, faults, recover, comm, all")
	k := flag.Int("k", 16, "partition count for -exp partitioners")
	faultSeed := flag.Int64("fault-seed", 7, "fault schedule seed for -exp faults")
	workers := flag.Int("workers", 0, "host worker goroutines of the SPL and classification scans and propagation; no output depends on it (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit the selected experiments as one JSON object keyed by name instead of text tables")
	flag.Parse()
	if *k < 1 {
		fmt.Fprintf(os.Stderr, "invalid -k %d: need at least 1 partition\n", *k)
		os.Exit(2)
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
		{"extension", func() fmt.Stringer { return experiments.RunExtensionRepeated(8, 6, 1) }},
		{"partitioners", func() fmt.Stringer { return experiments.RunPartitionerTable(*k) }},
		{"overlap", func() fmt.Stringer { return experiments.RunOverlapTable() }},
		{"faults", func() fmt.Stringer { return experiments.RunFaultTable(*faultSeed, *workers) }},
		{"recover", func() fmt.Stringer { return experiments.RunRecoverTable(*faultSeed, *workers) }},
		{"comm", func() fmt.Stringer { return experiments.RunCommTable() }},
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		known := name == "all"
		for _, r := range runners {
			known = known || r.name == name
		}
		if !known {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		want[name] = true
	}
	results := map[string]any{}
	for _, r := range runners {
		if !want["all"] && !want[r.name] {
			continue
		}
		if *jsonOut {
			// One object keyed by experiment name; the rows are the same
			// structs the text tables render.
			results[r.name] = r.run()
			continue
		}
		fmt.Println(r.run())
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
	}
}
