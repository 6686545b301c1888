// Command bench is the plum benchmark: five whole-cycle workloads driven
// through the real core.Framework, measured on the host clock and on the
// modeled machine clock, with a traced repetition for per-layer numbers.
// See README.md in this directory.
//
//	go -C bench run . -workload all -seed 1 -out baseline.json
//	go -C bench run . -compare a.json b.json
//	bash bench/run.sh --workload rotor-adapt --seed 3 --seconds 8 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// minTimedReps is the fewest timed repetitions of a run that measures for a
// given time (-seconds): a pass over two inputs is too few for a median of
// host times.
const minTimedReps = 3

// setupSamples is the fewest set-ups setup_s is the median of. Set-up takes
// 15 to 250 ms, too short to be steady over the two to six repetitions of a
// pass, so a run sets up a few more times on its own.
const setupSamples = 7

// value is one reported metric. A metric measured once per repetition
// carries its samples, their quartiles and their count (n < 20, so no tail
// percentile).
type value struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	N     int      `json:"n,omitempty"`
	// Noisy marks a host time whose (q3-q1)/median exceeds its bound.
	Noisy bool `json:"noisy,omitempty"`
	// Samples are the repetitions' values in the order they ran.
	// Repetition i ran on input i mod the workload's input count, so two
	// runs of one seed pair up sample by sample.
	Samples []float64 `json:"samples,omitempty"`
}

type workloadResult struct {
	Name            string   `json:"name"`
	Inputs          string   `json:"inputs"`
	InputCount      int      `json:"input_count"`
	Reps            int      `json:"reps"`
	Correct         bool     `json:"correct"`
	CyclesAttempted int      `json:"cycles_attempted"`
	CyclesFailed    int      `json:"cycles_failed"`
	Failures        []string `json:"failures,omitempty"`
	// Fingerprints has one entry per input.
	Fingerprints []string `json:"fingerprints"`

	EndToEnd map[string]value `json:"end_to_end,omitempty"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
	// Shares are fractions of the traced repetition's cycle wall with the
	// probe spans taken out, so the doubled probe work does not inflate
	// them.
	Shares map[string]float64 `json:"shares,omitempty"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"` // 0: whole passes over each workload's inputs
	Commit     string `json:"commit"`
}

type document struct {
	Schema    string           `json:"schema"`
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// runOpts selects what one workload run measures.
type runOpts struct {
	seed     int64
	toy      bool
	reps     int     // timed repetitions; 0 = whole passes over the inputs
	seconds  float64 // keep making passes until this much time has gone by; 0 = one pass
	endToEnd bool    // the timed repetitions
	layers   bool    // the traced repetition
	bounds   map[string]float64
}

// measure runs one workload. The observed repetition comes first: it is
// the discarded warm-up, and the per-layer counts are its. Then the timed
// repetitions for the end-to-end metrics, repetition i on input i mod the
// input count; then one traced repetition for the per-layer times. Every
// repetition generates its input afresh, and all repetitions on one input
// must produce the same fingerprint.
func measure(w workload, o runOpts) (workloadResult, *recorder) {
	var scs []scenario
	for _, d := range draws(o.seed, w.Inputs) {
		scs = append(scs, w.scenario(d, o.toy))
	}
	res := workloadResult{Name: w.Name, Inputs: scs[0].Inputs, InputCount: len(scs)}
	count := func(what string, r repResult) {
		res.CyclesAttempted += r.Attempted
		res.CyclesFailed += r.Failed
		for _, f := range r.Failures {
			res.Failures = append(res.Failures, what+": "+f)
		}
	}
	mismatch := func(what string) {
		res.Failures = append(res.Failures, what+": fingerprint differs from an earlier repetition's on the same input")
		res.CyclesFailed++
	}

	first := runRep(scs[0], observed, nil)
	count("observed rep", first)
	prints := []uint64{first.Fingerprint}

	var reps []repResult
	if o.endToEnd {
		start := time.Now()
		done := func(i int) bool {
			if o.reps > 0 {
				return i >= o.reps
			}
			if i == 0 || i%len(scs) != 0 {
				return false // whole passes over the inputs
			}
			return o.seconds == 0 || i >= minTimedReps && time.Since(start).Seconds() >= o.seconds
		}
		for i := 0; !done(i); i++ {
			r := runRep(scs[i%len(scs)], timed, nil)
			count(fmt.Sprintf("rep %d", i), r)
			switch in := i % len(scs); {
			case in == len(prints):
				prints = append(prints, r.Fingerprint)
			case r.Fingerprint != prints[in]:
				mismatch(fmt.Sprintf("rep %d", i))
			}
			reps = append(reps, r)
		}
		setups := make([]float64, len(reps))
		for i, r := range reps {
			setups[i] = r.SetupS
		}
		for i := len(setups); i < setupSamples; i++ {
			sc := scs[i%len(scs)]
			_, s, err := setUp(sc, sc.cfg, nil)
			if err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("set-up: %v", err))
				res.CyclesFailed++
				break
			}
			setups = append(setups, s)
		}
		res.Reps = len(reps)
		res.EndToEnd = endToEndValues(reps, setups, o.bounds)
	}

	var rec *recorder
	if o.layers {
		rec = newRecorder()
		tr := runRep(scs[0], traced, rec)
		count("traced rep", tr)
		match := tr.Fingerprint == first.Fingerprint
		if !match {
			mismatch("traced rep")
		}
		// Input 0's untraced wall: the timed repetitions on it, or without
		// any the observed one.
		var walls []float64
		for i := 0; i < len(reps); i += len(scs) {
			walls = append(walls, reps[i].RunWallS)
		}
		if len(walls) == 0 {
			walls = []float64{first.RunWallS}
		}
		res.PerLayer, res.Shares = layerValues(first, tr, walls, match)
	}
	for _, p := range prints {
		res.Fingerprints = append(res.Fingerprints, fmt.Sprintf("%016x", p))
	}
	if o.endToEnd {
		ok := float64(res.CyclesAttempted-res.CyclesFailed) / float64(res.CyclesAttempted)
		res.EndToEnd["cycles_ok_ratio"] = value{Value: ok, Unit: "ratio"}
	}
	res.Correct = res.CyclesFailed == 0
	return res, rec
}

// endToEndValues reduces the timed repetitions to the end-to-end metrics
// measured once per repetition. A host time is reported as the median of
// its samples, because the host's noise has outliers. An allocation figure
// or a modeled one is reported as their mean: its samples differ only by
// input, and the inputs are spread evenly over the range they come from.
func endToEndValues(reps []repResult, setups []float64, bounds map[string]float64) map[string]value {
	col := func(f func(repResult) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	hostTimes := map[string][]float64{
		"setup_s":     setups,
		"run_wall_s":  col(func(r repResult) float64 { return r.RunWallS }),
		"elems_per_s": col(func(r repResult) float64 { return float64(r.ElemSum) / r.RunWallS }),
	}
	perInput := map[string][]float64{
		"allocs_per_run":       col(func(r repResult) float64 { return float64(r.Mallocs) }),
		"alloc_bytes_per_run":  col(func(r repResult) float64 { return float64(r.AllocBytes) }),
		"live_heap_peak_bytes": col(func(r repResult) float64 { return float64(r.LiveHeapPeak) }),
		"modeled_run_s":        col(func(r repResult) float64 { return r.ModeledS }),
		"imbalance_mean":       col(func(r repResult) float64 { return r.ImbSum / float64(r.Attempted) }),
	}
	out := map[string]value{}
	for _, d := range endToEnd {
		xs, host := hostTimes[d.Name]
		if !host {
			xs = perInput[d.Name]
		}
		if xs == nil {
			continue // cycles_ok_ratio: one figure for the whole run
		}
		q1, med, q3 := quartiles(xs)
		v := value{Value: med, Unit: d.Unit, N: len(xs), Samples: xs}
		if !host {
			v.Value = mean(xs)
		}
		if len(xs) > 1 {
			v.Q1, v.Q3 = &q1, &q3
			if b, ok := bounds[d.Name]; ok && host {
				v.Noisy = (q3-q1)/med > b
			}
		}
		out[d.Name] = v
	}
	return out
}

// layerValues reports the per-layer metrics: counts, modeled seconds and
// the framework's own trace from the observed repetition, host seconds
// from the traced one. It also returns the share of the (probe-free) cycle
// wall each timed layer took.
func layerValues(first, tr repResult, untracedWalls []float64, match bool) (map[string]value, map[string]float64) {
	l := first.Layer
	for k, v := range tr.Spans {
		l[k] = v
	}
	_, wall, _ := quartiles(untracedWalls)
	l["trace.overhead_ratio"] = tr.RunWallS / wall
	if match {
		l["trace.fingerprint_match"] = 1
	}
	out := map[string]value{}
	for _, d := range perLayer {
		out[d.Name] = value{Value: l[d.Name], Unit: d.Unit}
	}

	net := tr.RunWallS - l["probe.total_s"]
	shares := map[string]float64{}
	for _, name := range []string{"solver.iterate_s", "adapt.mark_s", "par.refine_s", "par.coarsen_s",
		"dual.update_weights_s", "partition.repartition_s", "remap.build_s", "remap.heuristic_s", "par.remap_exec_s"} {
		shares[strings.TrimSuffix(name, "_s")] = l[name] / net
	}
	return out, shares
}

// driverLine is the one JSON object the benchmark contract wants as the
// last line of standard output.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// commitOf is the revision the binary was built from, as `go build` stamps
// it; `go run` stamps none.
func commitOf() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fl.String("workload", "all", "workload to run, or all")
		seed    = fl.Int64("seed", 1, "seed the inputs are generated from: region placement, Config.Seed, fault plan")
		reps    = fl.Int("reps", 0, "timed repetitions per workload (0 = whole passes over the workload's inputs: one, or as many as -seconds asks for)")
		seconds = fl.Float64("seconds", 0, "keep making passes over the inputs until this much time has gone by")
		trace   = fl.Int("trace", -1, "driver mode for one workload: 0 prints the end-to-end metrics, 1 the per-layer metrics, as the last line of stdout")
		out     = fl.String("out", "", "write the full JSON document here (and the spans to <out>.trace.json); default stdout")
		ledger  = fl.String("trajectory", "", "append one summary line of this run to this JSONL file")
		list    = fl.Bool("list", false, "list the workloads and exit")
		compare = fl.Bool("compare", false, "compare two documents: bench -compare a.json b.json")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-16s %d inputs: %s\n", w.Name, w.Inputs, w.scenario(draw{}, false).Inputs)
		}
		return nil
	}
	sp, specErr := loadSpec()
	if *compare {
		if specErr != nil {
			return specErr
		}
		if fl.NArg() != 2 {
			return errors.New("-compare needs two files: a.json b.json")
		}
		return compareFiles(os.Stdout, sp, fl.Arg(0), fl.Arg(1))
	}
	if specErr != nil && !errors.Is(specErr, fs.ErrNotExist) {
		return specErr
	}

	todo := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (see -list)", *name)
		}
		todo = []workload{w}
	}
	if *trace != -1 && (*trace < 0 || *trace > 1 || len(todo) != 1) {
		return errors.New("-trace takes 0 or 1 and one -workload")
	}

	doc, names, recs := runWorkloads(todo, runOpts{seed: *seed, reps: *reps, seconds: *seconds,
		endToEnd: *trace != 1, layers: *trace != 0, bounds: sp.bounds()})

	if *out != "" {
		if err := writeJSONFile(*out, doc); err != nil {
			return err
		}
		if len(recs) > 0 {
			if err := writeFile(*out+".trace.json", func(f *os.File) error { return writeTraceEvents(f, names, recs) }); err != nil {
				return err
			}
		}
	}
	if *ledger != "" {
		if err := appendTrajectory(*ledger, doc); err != nil {
			return err
		}
	}
	switch {
	case *trace != -1:
		res := doc.Workloads[0]
		line := driverLine{Correct: res.Correct, Attempted: res.CyclesAttempted, Failed: res.CyclesFailed, Metrics: res.EndToEnd}
		if *trace == 1 {
			line.Metrics = res.PerLayer
		}
		for k, v := range line.Metrics {
			line.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
		}
		if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
			return err
		}
	case *out == "":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	for _, w := range doc.Workloads {
		if !w.Correct {
			return errors.New("a correctness check failed")
		}
	}
	return nil
}

// runWorkloads measures the workloads one after another and returns the
// document, and the span recorders of the traced repetitions with the
// names of the workloads they belong to.
func runWorkloads(todo []workload, o runOpts) (document, []string, []*recorder) {
	doc := document{Schema: "plum-bench/2", Env: environment{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Seed: o.seed, Reps: o.reps, Commit: commitOf(),
	}}
	var names []string
	var recs []*recorder
	for _, w := range todo {
		t := time.Now()
		res, rec := measure(w, o)
		fmt.Fprintf(os.Stderr, "%-16s reps=%d cycles=%d failed=%d %.1fs\n", res.Name, res.Reps, res.CyclesAttempted, res.CyclesFailed, time.Since(t).Seconds())
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "  FAILED %s\n", f)
		}
		doc.Workloads = append(doc.Workloads, res)
		if rec != nil {
			names, recs = append(names, w.Name), append(recs, rec)
		}
	}
	return doc, names, recs
}

// writeFile creates path and hands it to write, reporting create, write
// and close errors alike.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	return writeFile(path, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// appendTrajectory appends the run's end-to-end medians as one JSONL row,
// so the perf history is a file.
func appendTrajectory(path string, doc document) error {
	row := struct {
		Env       environment                   `json:"env"`
		Workloads map[string]map[string]float64 `json:"workloads"`
	}{doc.Env, map[string]map[string]float64{}}
	for _, w := range doc.Workloads {
		m := map[string]float64{}
		for k, v := range w.EndToEnd {
			m[k] = v.Value
		}
		row.Workloads[w.Name] = m
	}
	b, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
