package main

import (
	"bytes"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSmokeAgainstSpec runs every workload at toy size and holds the output
// to BENCHMARK.json: every declared name present with its unit, no
// undeclared name, every check passed.
func TestSmokeAgainstSpec(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	doc, _, recs := runWorkloads(workloads, runOpts{seed: 2, toy: true, reps: 1, endToEnd: true, layers: true, bounds: sp.bounds()})
	if len(recs) != len(doc.Workloads) {
		t.Errorf("%d span recorders for %d workloads", len(recs), len(doc.Workloads))
	}
	if len(doc.Workloads) != len(sp.Workloads) {
		t.Fatalf("%d workloads run, %d declared", len(doc.Workloads), len(sp.Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != sp.Workloads[i].Name {
			t.Errorf("workload %d is %q, declared %q", i, w.Name, sp.Workloads[i].Name)
		}
		if !w.Correct || w.CyclesFailed != 0 || w.CyclesAttempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d %v", w.Name, w.Correct, w.CyclesFailed, w.CyclesAttempted, w.Failures)
		}
		checkDeclared(t, w.Name+" end_to_end", w.EndToEnd, sp.EndToEnd)
		checkDeclared(t, w.Name+" per_layer", w.PerLayer, sp.PerLayer)
		if w.PerLayer["trace.fingerprint_match"].Value != 1 {
			t.Errorf("%s: the traced repetition's fingerprint differs from the untraced one's", w.Name)
		}
	}
}

func checkDeclared(t *testing.T, what string, got map[string]value, declared []specMetric) {
	t.Helper()
	for _, d := range declared {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s missing", what, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, v.Unit, d.Unit)
		}
	}
	if len(got) != len(declared) {
		t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(declared))
	}
}

// TestSpecMatchesProgram holds the program's metric tables to the contract
// file: same names, units and directions, in the same order.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		defs []metricDef
		spec []specMetric
	}{{"end_to_end", endToEnd, sp.EndToEnd}, {"per_layer", perLayer, sp.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", c.what, len(c.defs), len(c.spec))
		}
		for i, d := range c.defs {
			if s := c.spec[i]; d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", c.what, i, d, s)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	v := func(med, q1, q3 float64) value { return value{Value: med, Q1: &q1, Q3: &q3} }
	samples := func(xs ...float64) value {
		q1, med, q3 := quartiles(xs)
		return value{Value: med, Q1: &q1, Q3: &q3, Samples: xs}
	}
	for _, c := range []struct {
		name          string
		a, b          value
		better        string
		bound         float64
		exact, paired bool
		want          string
	}{
		{"slower past the bound", v(1, 0.99, 1.01), v(1.2, 1.19, 1.21), "lower", 0.1, false, false, "worse"},
		{"slower inside the bound", v(1, 0.99, 1.01), v(1.05, 1.04, 1.06), "lower", 0.1, false, false, "within bound"},
		{"faster by more than the spread", v(1, 0.99, 1.01), v(0.9, 0.89, 0.91), "lower", 0.1, false, false, "better"},
		{"faster by less than the spread", v(1, 0.97, 1.03), v(0.98, 0.95, 1.01), "lower", 0.1, false, false, "within bound"},
		{"spread wider than the bound", v(1, 0.9, 1.1), v(1.5, 1.4, 1.6), "lower", 0.1, false, false, "unresolved"},
		{"higher is better", v(100, 99, 101), v(80, 79, 81), "higher", 0.1, false, false, "worse"},
		{"exact and equal", value{Value: 13.25}, value{Value: 13.25}, "lower", 0.05, true, true, "within bound"},
		{"exact and off by a hair", value{Value: 13.25}, value{Value: 13.2500001}, "lower", 0.05, true, true, "worse"},
		{"exact and lower", value{Value: 1.5}, value{Value: 1.04}, "lower", 0.05, true, true, "better"},
		// Inputs 30 % apart, every one 1 % slower: pairing sees the 1 %, the
		// quartiles of either run alone only the 30 %.
		{"paired, inputs far apart", samples(1, 1.3, 1.6), samples(1.01, 1.313, 1.616), "lower", 0.1, false, true, "within bound"},
		{"unpaired, inputs far apart", samples(1, 1.3, 1.6), samples(1.01, 1.313, 1.616), "lower", 0.1, false, false, "unresolved"},
		{"paired and slower on every input", samples(1, 1.3, 1.6), samples(1.2, 1.56, 1.92), "lower", 0.1, false, true, "worse"},
		{"paired, exact, one input moved", samples(3, 4, 5), samples(3, 4.001, 5), "lower", 0.1, true, true, "worse"},
		{"paired, exact, same inputs twice over", samples(3, 4, 5), samples(3, 4, 5, 3, 4, 5), "lower", 0.1, true, true, "within bound"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.better, c.bound, c.exact, c.paired); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompare runs -compare end to end on documents that agree, that
// differ in one modeled time, in one layer count, and in their workloads.
func TestCompare(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(workload string, modeled, adaptOps float64) document {
		e := map[string]value{}
		for _, d := range endToEnd {
			e[d.Name] = value{Value: 1, Unit: d.Unit}
		}
		e["modeled_run_s"] = value{Value: modeled, Unit: "s"}
		l := map[string]value{}
		for _, d := range perLayer {
			l[d.Name] = value{Value: 1, Unit: d.Unit}
		}
		l["par.adapt_ops"] = value{Value: adaptOps, Unit: "count"}
		l["par.refine_s"] = value{Value: modeled, Unit: "s"} // a host time: free to differ
		return document{Env: environment{Seed: 1}, Workloads: []workloadResult{{Name: workload, EndToEnd: e, PerLayer: l}}}
	}
	dir := t.TempDir()
	write := func(name string, d document) string {
		p := filepath.Join(dir, name)
		if err := writeJSONFile(p, d); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk("rotor-adapt", 13.25, 1000))
	for _, c := range []struct {
		name, other, want string
	}{
		{"itself", base, ""},
		{"a modeled time that moved", write("b.json", mk("rotor-adapt", 13.26, 1000)), "worse"},
		{"a layer count that moved", write("c.json", mk("rotor-adapt", 13.25, 1001)), "differ"},
		{"another workload", write("d.json", mk("rotor-repart", 13.25, 1000)), "missing"},
	} {
		var buf bytes.Buffer
		err := compareFiles(&buf, sp, base, c.other)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("compared with %s: %v\n%s", c.name, err, buf.String())
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("compared with %s: error %v, want one naming %q\n%s", c.name, err, c.want, buf.String())
		}
	}
}

// TestSeedContract checks that the same seed generates the same inputs,
// that another seed generates other ones, and that a run's inputs are
// spread over the grid cell.
func TestSeedContract(t *testing.T) {
	for _, w := range workloads {
		a, b, c := draws(3, w.Inputs), draws(3, w.Inputs), draws(4, w.Inputs)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 3 drew %v then %v", w.Name, a, b)
		}
		m := w.scenario(a[0], true).newMesh()
		for i := range a {
			sa, sb, sc := w.scenario(a[i], true), w.scenario(b[i], true), w.scenario(c[i], true)
			if sa.refine(m, 1) != sb.refine(m, 1) || sa.cfg.Seed != sb.cfg.Seed {
				t.Errorf("%s input %d: seed 3 generated two different inputs", w.Name, i)
			}
			if sa.refine(m, 1) == sc.refine(m, 1) || sa.cfg.Seed == sc.cfg.Seed {
				t.Errorf("%s input %d: seeds 3 and 4 generated the same input", w.Name, i)
			}
			if i > 0 && sa.refine(m, 1) == w.scenario(a[i-1], true).refine(m, 1) {
				t.Errorf("%s: inputs %d and %d of seed 3 mark the same region", w.Name, i-1, i)
			}
		}
	}
	// Evenly spaced over the cell on every axis, whatever the offset.
	ds := draws(9, 4)
	for k := 0; k < 3; k++ {
		var xs []float64
		for _, d := range ds {
			xs = append(xs, d.Cell[k])
		}
		slices.Sort(xs)
		for i := 1; i < len(xs); i++ {
			if gap := xs[i] - xs[i-1]; math.Abs(gap-0.25) > 1e-12 {
				t.Errorf("axis %d: draws %v are not a quarter cell apart", k, xs)
			}
		}
	}
}
