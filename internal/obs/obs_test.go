package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// sampleTrace builds a small two-rank trace exercising spans, nesting,
// events, and attributes.
func sampleTrace() *Trace {
	tr := NewTrace()
	tr.Begin("cycle", Int("cycle", 0))
	tr.Span(FrameworkRank, "solver", tr.Now(), 1.5, Int("iters", 3))
	tr.Advance(1.5)
	tr.Event("info", "ckpt.capture", Int("cycle", 0))
	tr.Span(0, "remap.send", tr.Now(), 0.25, Int("words", 1000))
	tr.Span(1, "remap.send", tr.Now(), 0.5)
	tr.Advance(0.5)
	tr.End(String("outcome", "committed"))
	return tr
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Begin("x")
	tr.End()
	tr.Span(0, "y", 0, 1)
	tr.Event("info", "z")
	tr.Advance(1)
	if tr.Now() != 0 || tr.Enabled() || tr.Spans() != nil || tr.Events() != nil {
		t.Fatal("nil Trace must be inert")
	}
	var reg *Registry
	reg.Inc("a")
	reg.Add("b", 2)
	reg.Set("c", 3)
	reg.SetHelp("a", "h")
	if reg.Counter("a") != 0 || reg.Gauge("c") != 0 || reg.Snapshot() != nil {
		t.Fatal("nil Registry must be inert")
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
}

func TestSpanOrderAndCursor(t *testing.T) {
	tr := sampleTrace()
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// The Begin/End cycle span closes last and covers the whole timeline.
	cy := spans[3]
	if cy.Stage != "cycle" || cy.Start != 0 || cy.Dur != 2.0 || cy.Rank != FrameworkRank {
		t.Fatalf("cycle span wrong: %+v", cy)
	}
	// Seqs strictly increase across spans and events together.
	last := int64(0)
	for _, s := range spans[:3] {
		if s.Seq <= last {
			t.Fatalf("seq not increasing: %+v", s)
		}
		last = s.Seq
	}
	if evs := tr.Events(); len(evs) != 1 || evs[0].T != 1.5 {
		t.Fatalf("events wrong: %+v", evs)
	}
}

func TestPerfettoExport(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	// Tracks: framework (tid 0) + ranks 0,1 (tids 1,2) → 3 metadata
	// events, then 4 spans + 1 instant.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d trace events, want 8", len(doc.TraceEvents))
	}
	for i := 0; i < 3; i++ {
		if doc.TraceEvents[i]["ph"] != "M" {
			t.Fatalf("event %d not thread metadata: %v", i, doc.TraceEvents[i])
		}
	}
	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := WritePerfetto(&buf2, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("perfetto export not byte-stable")
	}
}

func TestJSONLExport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n, lastSeq := 0, int64(0)
	for sc.Scan() {
		var rec struct {
			Seq  int64  `json:"seq"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", n, err)
		}
		if rec.Kind != "span" && rec.Kind != "event" {
			t.Fatalf("line %d bad kind %q", n, rec.Kind)
		}
		if rec.Seq <= lastSeq {
			t.Fatalf("line %d seq %d not increasing", n, rec.Seq)
		}
		lastSeq = rec.Seq
		n++
	}
	if n != 5 {
		t.Fatalf("got %d JSONL lines, want 5", n)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Set("z_gauge", 1.5)
	r.Inc("a_total")
	r.Add(`m_total{kind="x"}`, 2)
	r.Add(`m_total{kind="a"}`, 3)
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q >= %q", snap[i-1].Name, snap[i].Name)
		}
	}
	if len(snap) != 4 || snap[0].Name != "a_total" || snap[0].Kind != "counter" {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
}

// promLine is the Prometheus text exposition line grammar: a metric name
// with an optional label set, one space, a float value. This regex check
// is the promtool-free syntactic gate CI relies on.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$`)

var promComment = regexp.MustCompile(
	`^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge))$`)

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("plum_cycles_total", "Completed balance cycles.")
	r.Add("plum_cycles_total", 3)
	r.Add(`plum_outcomes_total{outcome="committed"}`, 2)
	r.Add(`plum_outcomes_total{outcome="rolled-back"}`, 1)
	r.Set("plum_imbalance_after", 1.0625)
	r.Set("plum_alive_ranks", 8)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	typesSeen := 0
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !promComment.MatchString(line) {
				t.Errorf("line %d: bad comment %q", i, line)
			}
			if strings.HasPrefix(line, "# TYPE") {
				typesSeen++
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("line %d: bad sample line %q", i, line)
		}
	}
	// One TYPE per base name: cycles, outcomes, imbalance, alive.
	if typesSeen != 4 {
		t.Errorf("got %d TYPE lines, want 4\n%s", typesSeen, buf.String())
	}
}
