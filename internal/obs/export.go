package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// The exporters. Both render in canonical order (spans and events by
// Seq, metrics by name) and format floats via the shortest round-trip
// rendering (encoding/json and strconv agree on it), so the output bytes
// are a pure function of the recorded history — the property the CI
// byte-diffs pin run to run and across GOMAXPROCS.

// perfettoEvent is one Chrome trace-event object. Complete spans use
// ph "X" with microsecond ts/dur; instants use ph "i"; thread-name
// metadata uses ph "M". Field order is fixed by the struct, map args are
// key-sorted by encoding/json — deterministic bytes throughout.
type perfettoEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// perfettoTrace is the top-level trace-event JSON document.
type perfettoTrace struct {
	TraceEvents []perfettoEvent `json:"traceEvents"`
	DisplayUnit string          `json:"displayTimeUnit"`
}

// tidOf maps a span rank to a Perfetto thread id: the framework track is
// tid 0, rank r is tid r+1.
func tidOf(rank int32) int { return int(rank) + 1 }

// WritePerfetto exports the trace as Chrome/Perfetto trace-event JSON:
// one track (tid) per machine rank plus a framework track, complete
// ("X") spans at the modeled times in microseconds, and instant ("i")
// events. Load the file in ui.perfetto.dev or chrome://tracing.
func WritePerfetto(w io.Writer, t *Trace) error {
	doc := perfettoTrace{TraceEvents: []perfettoEvent{}, DisplayUnit: "ms"}

	// Thread-name metadata first, in tid order, so the track names are
	// stable whatever the emission order of the ranks was.
	tids := map[int]bool{}
	for _, s := range t.Spans() {
		tids[tidOf(s.Rank)] = true
	}
	if len(t.Events()) > 0 {
		tids[0] = true // events render on the framework track
	}
	order := make([]int, 0, len(tids))
	for tid := range tids {
		order = append(order, tid)
	}
	sort.Ints(order)
	for _, tid := range order {
		name := "framework"
		if tid > 0 {
			name = fmt.Sprintf("rank %d", tid-1)
		}
		doc.TraceEvents = append(doc.TraceEvents, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]string{"name": name},
		})
	}

	// Spans and events interleaved in canonical sequence order.
	spans, events := t.Spans(), t.Events()
	si, ei := 0, 0
	for si < len(spans) || ei < len(events) {
		if ei >= len(events) || (si < len(spans) && spans[si].Seq < events[ei].Seq) {
			s := spans[si]
			si++
			doc.TraceEvents = append(doc.TraceEvents, perfettoEvent{
				Name: s.Stage, Ph: "X", Ts: s.Start * 1e6, Dur: s.Dur * 1e6,
				Pid: 0, Tid: tidOf(s.Rank), Args: attrArgs(s.Attrs),
			})
			continue
		}
		e := events[ei]
		ei++
		args := attrArgs(e.Attrs)
		if args == nil {
			args = map[string]string{}
		}
		args["level"] = e.Level
		doc.TraceEvents = append(doc.TraceEvents, perfettoEvent{
			Name: e.Msg, Ph: "i", Ts: e.T * 1e6, Pid: 0, Tid: 0, S: "t", Args: args,
		})
	}

	enc, err := json.MarshalIndent(&doc, "", " ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// attrArgs converts an attribute list to the Perfetto args map (nil when
// empty, so the args key is omitted).
func attrArgs(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// WritePrometheus exports the registry in the Prometheus text exposition
// format: # HELP/# TYPE comments per base metric name, then one
// 'name value' line per series, all in sorted-name order.
func WritePrometheus(w io.Writer, r *Registry) error {
	snap := r.Snapshot()
	lastBase := ""
	for _, m := range snap {
		base := baseName(m.Name)
		if base != lastBase {
			lastBase = base
			if r != nil {
				if h := r.help[base]; h != "" {
					if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, h); err != nil {
						return err
					}
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, m.Kind); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// WriteFiles is cmd/plum's exit-path flush: it writes the Perfetto trace
// to tracePath and the metrics dump to metricsPath. A nil sink skips its
// file. Both files are attempted; the errors come back joined, each
// labelled with its sink.
func WriteFiles(tracePath string, tr *Trace, metricsPath string, reg *Registry) error {
	var terr, merr error
	if tr != nil {
		terr = writeFile(tracePath, func(w io.Writer) error { return WritePerfetto(w, tr) })
	}
	if reg != nil {
		merr = writeFile(metricsPath, func(w io.Writer) error { return WritePrometheus(w, reg) })
	}
	if terr != nil {
		terr = fmt.Errorf("trace: %w", terr)
	}
	if merr != nil {
		merr = fmt.Errorf("metrics: %w", merr)
	}
	return errors.Join(terr, merr)
}

// writeFile creates path and streams one export into it, reporting
// create, write, and close errors alike.
func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
