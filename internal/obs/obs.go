// Package obs is the repo's observability substrate: atomic counters,
// gauges, streaming histograms with quantiles, named timing spans and a
// throttled progress reporter, all behind a Registry with a
// process-default instance, plus structured logging via log/slog with a
// package-level, test-overridable logger.
//
// The package is dependency-free (stdlib only) and sits below every
// other internal package, so any layer — device, hw, train, fault,
// experiment — can instrument itself without import cycles. All metric
// types are safe for concurrent use; the hot-path operations (counter
// increments, histogram records) are single atomic ops so Monte-Carlo
// fan-outs can hammer them from every worker.
//
// Instrumentation can be globally disabled with SetEnabled(false):
// counters stop counting and spans stop reading the clock, which is how
// the hw read-path benchmark measures the overhead of the layer itself.
package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates all metric recording. Default on; the benchmark harness
// flips it off to measure the cost of the instrumentation itself.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns metric recording on or off process-wide and returns
// the previous setting.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether metric recording is on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(1)
}

// Add adds n (n < 0 is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a named collection of metrics. Metric handles are
// get-or-create: the first lookup under a name allocates, later lookups
// return the same handle, so callers cache the pointer and skip the map
// on the hot path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-default registry every layer records into
// unless it was built against a private one.
func Default() *Registry { return defaultRegistry }

// Counter returns (creating if needed) the counter with the given name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating if needed) the histogram with the given
// name.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram()
	r.hists[name] = h
	return h
}

// Reset drops every metric in the registry. Handles obtained before the
// reset keep working but no longer appear in snapshots; tests and the
// bench harness use this to isolate measurement windows.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
}

// Snapshot is a point-in-time, JSON-serializable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. Zero-count histograms
// and zero counters are included so a snapshot enumerates everything
// that was ever registered.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// JSON renders the snapshot as indented JSON with stable key order
// (encoding/json sorts map keys).
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// CounterNames returns the sorted names of every counter in the
// snapshot (a convenience for tests and reports).
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
