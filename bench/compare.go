package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the contract file at the repository root
// that names the metrics and owns each end-to-end metric's bound.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent:
// the benchmark runs from the repository root and from bench/.
func loadSpec() (*benchSpec, error) {
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var sp benchSpec
		if err := json.Unmarshal(b, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &sp, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json: %w", fs.ErrNotExist)
}

// bounds maps each end-to-end metric to its bound; nil without a spec.
func (sp *benchSpec) bounds() map[string]float64 {
	if sp == nil {
		return nil
	}
	m := map[string]float64{}
	for _, e := range sp.EndToEnd {
		m[e.Name] = e.Bound
	}
	return m
}

// exactTol is the relative tolerance of a bit-for-bit metric, wide enough
// only for JSON's decimal round trip.
const exactTol = 1e-9

// worsening is the share of a by which b is worse.
func worsening(a, b float64, better string) float64 {
	w := (b - a) / math.Abs(a)
	if better == "higher" {
		return -w
	}
	return w
}

// verdict compares one metric of a candidate run (b) with the baseline (a)
// and returns the row's verdict, the share of a by which b is worse, and
// the spread that share is uncertain by.
//
// paired says the two runs had the same seed, so sample i of both ran on
// the same input: the worsening is then the median of the n sample-by-sample
// worsenings, and the spread their interquartile range over √n, which is
// how far a median of n is uncertain and leaves out how much the inputs
// differ from each other. Unpaired runs are compared by their reported
// values, with the wider of their (q3-q1)/median as spread. An exact metric
// must agree on every pair.
func verdict(a, b value, better string, bound float64, exact, paired bool) (v string, worse, spread float64) {
	n := min(len(a.Samples), len(b.Samples))
	switch {
	case paired && n > 0:
		ws := make([]float64, n)
		for i := range ws {
			if a.Samples[i] == 0 {
				return "unresolved", 0, 0
			}
			ws[i] = worsening(a.Samples[i], b.Samples[i], better)
		}
		if exact {
			lo, hi := slices.Min(ws), slices.Max(ws)
			switch {
			case hi > exactTol:
				return "worse", hi, 0
			case lo < -exactTol:
				return "better", lo, 0
			}
			return "within bound", 0, 0
		}
		q1, med, q3 := quartiles(ws)
		worse, spread = med, (q3-q1)/math.Sqrt(float64(n))
	case a.Value == 0:
		return "unresolved", 0, 0
	default:
		worse = worsening(a.Value, b.Value, better)
		if exact {
			switch {
			case worse > exactTol:
				return "worse", worse, 0
			case worse < -exactTol:
				return "better", worse, 0
			}
			return "within bound", worse, 0
		}
		spread = math.Max(relSpread(a), relSpread(b))
	}
	switch {
	case spread > bound:
		return "unresolved", worse, spread
	case worse > bound:
		return "worse", worse, spread
	case worse < -spread && worse < 0:
		return "better", worse, spread
	}
	return "within bound", worse, spread
}

func relSpread(v value) float64 {
	if v.Q1 == nil || v.Q3 == nil || v.Value == 0 {
		return 0
	}
	return (*v.Q3 - *v.Q1) / math.Abs(v.Value)
}

func readDocument(path string) (document, error) {
	var d document
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// compareFiles prints one row per workload × end-to-end metric, and one
// for every count-type per-layer metric that differs between two runs of
// one seed. It returns an error when a row is worse, when such a count
// differs, or when a workload is in one document only. Two runs of one
// seed are held to equality on the modeled-clock metrics; every other row
// to its bound.
func compareFiles(w io.Writer, sp *benchSpec, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	sameSeed := a.Env.Seed == b.Env.Seed
	inB := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		inB[wl.Name] = wl
	}
	var problems []string
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tspread\tbound\tverdict")
	counts := map[string]int{}
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		delete(inB, wa.Name)
		if !ok {
			problems = append(problems, fmt.Sprintf("workload %s is missing from %s", wa.Name, pathB))
			continue
		}
		if (wa.EndToEnd == nil) != (wb.EndToEnd == nil) || (wa.PerLayer == nil) != (wb.PerLayer == nil) {
			problems = append(problems, fmt.Sprintf("workload %s: one document lacks a block of metrics the other has", wa.Name))
			continue
		}
		for _, m := range sp.EndToEnd {
			if wa.EndToEnd == nil {
				break
			}
			exact := sameSeed && exactMetrics[m.Name]
			v, worse, spread := verdict(wa.EndToEnd[m.Name], wb.EndToEnd[m.Name], m.Better, m.Bound, exact, sameSeed)
			counts[v]++
			bound := fmt.Sprintf("%.3g", m.Bound)
			if exact {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%s\t%s\n", wa.Name, m.Name,
				wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value, 100*worse, 100*spread, bound, v)
		}
		for _, m := range sp.PerLayer {
			if !sameSeed || wa.PerLayer == nil || !exactLayer(m.Name) {
				continue
			}
			va, vb := wa.PerLayer[m.Name].Value, wb.PerLayer[m.Name].Value
			if math.Abs(vb-va) > exactTol*math.Abs(va) {
				counts["differs"]++
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t\t\texact\tdiffers\n", wa.Name, m.Name, va, vb)
			}
		}
	}
	for name := range inB {
		problems = append(problems, fmt.Sprintf("workload %s is missing from %s", name, pathA))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "better %d, within bound %d, worse %d, unresolved %d; count-type layer metrics differing %d\n",
		counts["better"], counts["within bound"], counts["worse"], counts["unresolved"], counts["differs"])
	if counts["worse"] > 0 {
		problems = append(problems, fmt.Sprintf("%d metric(s) worse than the bound allows", counts["worse"]))
	}
	if counts["differs"] > 0 {
		problems = append(problems, fmt.Sprintf("%d count-type per-layer metric(s) differ at a fixed seed", counts["differs"]))
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}
