// Package obs is the deterministic observability layer: a span tracer on
// the modeled machine timeline, a typed counters/gauges registry, and
// exporters (Chrome/Perfetto trace-event JSON, a JSONL event log, and the
// Prometheus text exposition format).
//
// The tracer records *modeled* time — the machine-model clock the balance
// pipeline already computes per stage — not host wall time. Spans are
// emitted in canonical program order from serial code (never inside
// chunked worker loops), and every recorded quantity is worker-invariant
// (totals, modeled phase times, moved counts — never critical-path
// shares, which legitimately depend on the worker knob), so an exported
// trace is byte-identical at any worker count and GOMAXPROCS.
//
// Every method on Trace and Registry is safe on a nil receiver and does
// nothing, so instrumented code needs no enabled-flag plumbing. Because
// variadic attribute slices are built by the *caller*, hot paths must
// still guard emission with an explicit nil check (or route through a
// nil-checking helper that builds the attributes after the check) to stay
// allocation-free when tracing is off; see core's trace helpers.
package obs

import "strconv"

// FrameworkRank is the span rank of framework-level (non-per-rank)
// stages: the solver, the partitioner, the mapper. Exporters render it as
// its own track beside the per-rank tracks.
const FrameworkRank int32 = -1

// Attr is one key/value annotation on a span or event. Values are
// pre-rendered strings so emission order, not type reflection, decides
// the bytes; use the constructors to format deterministically.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Val: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Val: strconv.FormatBool(v)} }

// Float builds a float attribute with the shortest round-trip rendering
// ('g', precision -1) — the same bytes on every platform for the same
// bits, which is what keeps attribute-carrying traces diffable.
func Float(k string, v float64) Attr { return Attr{Key: k, Val: strconv.FormatFloat(v, 'g', -1, 64)} }

// Span is one completed stage on the modeled timeline. Start and Dur are
// modeled seconds; Rank is the machine rank the stage ran on, or
// FrameworkRank for framework-level stages. Seq is the global emission
// sequence number shared with events, fixing a canonical total order.
type Span struct {
	Seq   int64   `json:"seq"`
	Rank  int32   `json:"rank"`
	Stage string  `json:"stage"`
	Start float64 `json:"start"`
	Dur   float64 `json:"dur"`
	Attrs []Attr  `json:"attrs,omitempty"`
}

// Event is one instantaneous occurrence (a checkpoint capture, a window
// retry, a crash) at modeled time T.
type Event struct {
	Seq   int64   `json:"seq"`
	T     float64 `json:"t"`
	Level string  `json:"level"`
	Msg   string  `json:"msg"`
	Attrs []Attr  `json:"attrs,omitempty"`
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
// Trace is not safe for concurrent use — emission happens from serial
// canonical-order code by design (concurrent emission would break the
// determinism contract no matter what a lock did).
type Trace struct {
	seq    int64
	now    float64
	spans  []Span
	events []Event
	open   []openSpan
}

// NewTrace returns an empty trace with the cursor at modeled time zero.
func NewTrace() *Trace { return &Trace{} }

// Enabled reports whether the trace is live (non-nil).
func (t *Trace) Enabled() bool { return t != nil }

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
	t.open = append(t.open, openSpan{rank: FrameworkRank, stage: stage, start: t.now, attrs: attrs})
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
	t.Span(o.rank, o.stage, o.start, t.now-o.start, append(o.attrs, attrs...)...)
}

// Span records one completed stage with an explicit start and duration —
// the workhorse for modeled times computed after the fact (the machine
// clock knows a stage's duration only once the stage has been charged).
func (t *Trace) Span(rank int32, stage string, start, dur float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.seq++
	t.spans = append(t.spans, Span{Seq: t.seq, Rank: rank, Stage: stage, Start: start, Dur: dur, Attrs: attrs})
}

// Event records an instantaneous occurrence at the cursor. level is
// "info", "warn", or "error" by convention.
func (t *Trace) Event(level, msg string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.seq++
	t.events = append(t.events, Event{Seq: t.seq, T: t.now, Level: level, Msg: msg, Attrs: attrs})
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
