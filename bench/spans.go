package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Times are host nanoseconds since the recorder was created.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int // index of the span that caused this one; -1 for a root
	Cycle  int // cycle the span belongs to; -1 for set-up spans
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, at exit. A
// nil recorder records nothing, which is how the untraced repetitions run.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its index, which end and child spans
// refer to.
func (r *recorder) begin(name string, parent, cycle int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: r.now(), End: -1, Parent: parent, Cycle: cycle})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id].End = r.now()
	}
}

// timed records fn as one span under parent.
func (r *recorder) timed(name string, parent, cycle int, fn func()) {
	id := r.begin(name, parent, cycle)
	fn()
	r.end(id)
}

// total sums the durations of every span with the given name, in seconds.
func (r *recorder) total(name string) float64 {
	if r == nil {
		return 0
	}
	var ns int64
	for _, s := range r.spans {
		if s.Name == name {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e9
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent and
// their union is taken, so overlapping children are not subtracted twice
// and a child that runs past its parent cannot make self time negative.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(spans, kids[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum int64
	end := lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		sum += v.b - max(v.a, end)
		end = v.b
	}
	return sum
}

// traceEvent is one complete ("X") event of the Chrome/Perfetto
// trace-event format; timestamps are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTraceEvents writes the spans of every traced workload as one
// trace-event JSON file, one process id per workload.
func writeTraceEvents(w io.Writer, names []string, recs []*recorder) error {
	events := []traceEvent{}
	for pid, r := range recs {
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			events = append(events, traceEvent{
				Name: s.Name, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Pid: pid + 1, Tid: 1,
				Args: map[string]any{
					"workload": names[pid], "id": i, "parent": s.Parent,
					"cycle": s.Cycle, "self_us": float64(self[i]) / 1e3,
				},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
