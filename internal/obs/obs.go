// Package obs is the deterministic observability layer: a span tracer on
// the modeled machine timeline, a typed counters/gauges registry, and two
// exporters: Chrome/Perfetto trace-event JSON for the trace and the
// Prometheus text exposition format for the registry.
//
// The tracer records *modeled* time — the machine-model clock the balance
// pipeline already computes per stage — not host wall time. Spans are
// emitted in canonical program order, so an exported trace is
// byte-identical run to run and at any GOMAXPROCS.
//
// Every method on Trace and Registry is safe on a nil receiver and does
// nothing, so instrumented code needs no enabled-flag plumbing and no
// guard: an Attr is a plain typed value that formats nothing until an
// exporter renders it, and Trace copies the attributes it keeps instead
// of holding the caller's variadic slice, so that slice never escapes and
// an emission on a nil *Trace allocates nothing.
package obs

import (
	"math"
	"strconv"
)

// FrameworkRank is the span rank of framework-level (non-per-rank)
// stages: the solver, the partitioner, the mapper. Exporters render it as
// its own track beside the per-rank tracks.
const FrameworkRank int32 = -1

// Attr is one key/value annotation on a span or event: a key and one
// int, float, bool or string value. Building one formats nothing; the
// exporters render the value with Value, so emission order, not type
// reflection, decides the bytes.
type Attr struct {
	Key  string
	kind attrKind
	num  uint64 // the int64 or float64 bits, or the bool as 0/1
	str  string
}

type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, kind: kindInt, num: uint64(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	a := Attr{Key: k, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, kind: kindFloat, num: math.Float64bits(v)} }

// Value renders the attribute's value: integers in base 10, floats with
// the shortest round-trip rendering ('g', precision -1) — the same bytes
// on every platform for the same bits, which is what keeps
// attribute-carrying traces diffable — and bools as true/false.
func (a Attr) Value() string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(int64(a.num), 10)
	case kindFloat:
		return strconv.FormatFloat(math.Float64frombits(a.num), 'g', -1, 64)
	case kindBool:
		return strconv.FormatBool(a.num != 0)
	}
	return a.str
}

// Span is one completed stage on the modeled timeline. Start and Dur are
// modeled seconds; Rank is the machine rank the stage ran on, or
// FrameworkRank for framework-level stages. Seq is the global emission
// sequence number shared with events, fixing a canonical total order.
type Span struct {
	Seq   int64
	Rank  int32
	Stage string
	Start float64
	Dur   float64
	Attrs []Attr
}

// Event is one instantaneous occurrence (a checkpoint capture, a window
// retry, a crash) at modeled time T.
type Event struct {
	Seq   int64
	T     float64
	Level string
	Msg   string
	Attrs []Attr
}

// openSpan is one Begin awaiting its End.
type openSpan struct {
	rank  int32
	stage string
	start float64
	attrs []Attr
}

// Trace accumulates spans and events on the modeled timeline. The
// zero value is ready to use; a nil *Trace is a no-op on every method.
// Trace is not safe for concurrent use — emission happens in canonical
// program order by design (concurrent emission would break the
// determinism contract no matter what a lock did).
type Trace struct {
	seq    int64
	now    float64
	spans  []Span
	events []Event
	open   []openSpan
	attrs  []Attr // the arena every kept attribute list is cut from
}

// NewTrace returns an empty trace with the cursor at modeled time zero.
func NewTrace() *Trace { return &Trace{} }

// Now returns the modeled-time cursor.
func (t *Trace) Now() float64 {
	if t == nil {
		return 0
	}
	return t.now
}

// Advance moves the modeled-time cursor forward by d seconds.
func (t *Trace) Advance(d float64) {
	if t == nil {
		return
	}
	t.now += d
}

// Begin opens a framework-rank span at the cursor; End closes it. Begins
// nest: End closes the innermost open span.
func (t *Trace) Begin(stage string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.open = append(t.open, openSpan{rank: FrameworkRank, stage: stage, start: t.now, attrs: t.keep(attrs, nil)})
}

// End closes the innermost open span at the cursor, appending any extra
// attributes recorded at completion time (an outcome, a count). Without a
// matching Begin it does nothing.
func (t *Trace) End(attrs ...Attr) {
	if t == nil || len(t.open) == 0 {
		return
	}
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.seq++
	t.spans = append(t.spans, Span{Seq: t.seq, Rank: o.rank, Stage: o.stage, Start: o.start, Dur: t.now - o.start,
		Attrs: t.keep(o.attrs, attrs)})
}

// Span records one completed stage with an explicit start and duration —
// the workhorse for modeled times computed after the fact (the machine
// clock knows a stage's duration only once the stage has been charged).
func (t *Trace) Span(rank int32, stage string, start, dur float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.seq++
	t.spans = append(t.spans, Span{Seq: t.seq, Rank: rank, Stage: stage, Start: start, Dur: dur, Attrs: t.keep(attrs, nil)})
}

// Event records an instantaneous occurrence at the cursor. level is
// "info", "warn", or "error" by convention.
func (t *Trace) Event(level, msg string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.seq++
	t.events = append(t.events, Event{Seq: t.seq, T: t.now, Level: level, Msg: msg, Attrs: t.keep(attrs, nil)})
}

// keep copies a then b into the trace's attribute arena and returns the
// copy (nil when both are empty). No caller's slice is ever stored, so a
// variadic attribute list never escapes its call.
func (t *Trace) keep(a, b []Attr) []Attr {
	if len(a)+len(b) == 0 {
		return nil
	}
	n := len(t.attrs)
	t.attrs = append(append(t.attrs, a...), b...)
	return t.attrs[n:len(t.attrs):len(t.attrs)]
}

// Spans returns the recorded spans in emission order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Events returns the recorded events in emission order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}
