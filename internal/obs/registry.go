package obs

import (
	"sort"
	"strings"
)

// Metric is one snapshotted registry entry. Kind is "counter" or
// "gauge". Counter values are float64 for a single rendering path —
// every counter in the framework is integral and well below 2^53, so no
// precision is lost.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
}

// Registry is a deterministic counters/gauges store. Names may embed
// Prometheus-style labels ('plum_outcomes_total{outcome="committed"}');
// the exporter groups HELP/TYPE comments by the base name before '{'.
// Every method is safe on a nil receiver and does nothing, so
// instrumented code needs no enabled-flag plumbing. Not safe for
// concurrent use — metrics are recorded in canonical program order,
// like trace emission.
type Registry struct {
	counters map[string]float64
	gauges   map[string]float64
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		help:     map[string]string{},
	}
}

// Add increments counter name by delta (creating it at zero).
func (r *Registry) Add(name string, delta float64) {
	if r == nil {
		return
	}
	r.counters[name] += delta
}

// Inc increments counter name by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Set sets gauge name to v.
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.gauges[name] = v
}

// SetHelp attaches a HELP string to a base metric name (the part before
// any '{'), rendered by WritePrometheus.
func (r *Registry) SetHelp(base, text string) {
	if r == nil {
		return
	}
	r.help[base] = text
}

// Snapshot returns every metric sorted by name — counters and gauges
// interleaved in one canonical order, so two registries fed the same
// history snapshot to identical bytes whatever the recording order was.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges))
	for n, v := range r.counters {
		out = append(out, Metric{Name: n, Kind: "counter", Value: v})
	}
	for n, v := range r.gauges {
		out = append(out, Metric{Name: n, Kind: "gauge", Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// baseName strips a Prometheus label set from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}
