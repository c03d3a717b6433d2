// Package obs is the campaign observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms with a Prometheus-style text exposition), a structured JSONL
// campaign event log with per-worker ordering guarantees, and an HTTP
// handler that serves the exposition next to net/http/pprof.
//
// Design rules, in force everywhere the package is used:
//
//   - Instrumentation is observation only. Incrementing a metric or
//     emitting an event never influences execution, RNG streams, or any
//     deterministic campaign counter — the engine conformance goldens hold
//     with observability on or off.
//   - Metric values are wall-clock- and scheduling-dependent; they vary
//     run to run and must never be asserted byte-identical across worker
//     counts. The registry is the one home of runtime rates: core.Stats
//     holds only deterministic counts.
//   - Registration is get-or-create: asking twice for the same name
//     returns the same metric, so independent subsystems (engine, fuzzer,
//     pool) can share one registry without coordination. Re-registering a
//     name as a different type or label set panics — that is a programming
//     error, not a runtime condition.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// mathFloat64bits/frombits alias the stdlib conversions; gauges and
// histogram sums store float64 values inside atomic.Uint64 cells.
func mathFloat64bits(v float64) uint64     { return math.Float64bits(v) }
func mathFloat64frombits(b uint64) float64 { return math.Float64frombits(b) }

// metricKind discriminates the registered metric families.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// expoName returns the TYPE keyword used in the text exposition.
func (k metricKind) expoName() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing uint64 metric, safe for concurrent
// use. Unless the metric's help text says otherwise the unit is "events"
// (a plain occurrence count).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n is a delta; counters never decrease).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down (sizes, rates, widths),
// safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(mathFloat64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return mathFloat64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric, safe for concurrent
// use. A bucket with upper bound `le` counts observations v <= le
// (inclusive, Prometheus semantics); observations beyond the last bound
// land in the implicit +Inf bucket. Bounds are set at registration and
// never change.
type Histogram struct {
	// upper holds the finite bucket upper bounds, strictly increasing.
	upper []float64
	// counts has len(upper)+1 slots; the last is the +Inf bucket.
	counts []atomic.Uint64
	// sumBits accumulates the sum of observed values (float64 bits).
	sumBits atomic.Uint64
	// count is the total number of observations.
	count atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing at %d: %v", i, buckets))
		}
	}
	up := make([]float64, len(buckets))
	copy(up, buckets)
	return &Histogram{upper: up, counts: make([]atomic.Uint64, len(up)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v, i.e. v <= upper[i]
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := mathFloat64bits(mathFloat64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return mathFloat64frombits(h.sumBits.Load()) }

// DurationBuckets is the default latency histogram layout: exponential
// bounds from 1µs to 4s, in seconds — wide enough for both a single
// simulated kernel execution and a whole campaign batch.
func DurationBuckets() []float64 {
	return []float64{1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 0.25, 1, 4}
}

// family is one registered metric name: its metadata plus its children
// (one per distinct label-value combination; a single "" child for
// label-less metrics).
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]any // child key -> *Counter | *Gauge | *Histogram
}

// childKey joins label values into the map key. \xff cannot appear in
// sane label values, so the join is unambiguous.
func childKey(values []string) string { return strings.Join(values, "\xff") }

// child returns (creating if needed) the metric for the label values.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.buckets)
	}
	f.children[key] = m
	return m
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). The result can be cached by callers on hot paths.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values (created on first
// use). The result can be cached by callers on hot paths.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// Registry holds named metric families and renders them in the
// Prometheus text exposition format. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns (creating if needed) the family, enforcing that a name is
// only ever registered with one kind and label set.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with different type or labels", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// Counter returns (registering on first use) the label-less counter name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, nil, nil).child(nil).(*Counter)
}

// CounterVec returns (registering on first use) the labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, kindCounter, labels, nil)}
}

// Gauge returns (registering on first use) the label-less gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, nil).child(nil).(*Gauge)
}

// Histogram returns (registering on first use) the label-less histogram
// name with the given bucket upper bounds.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, kindHistogram, nil, buckets).child(nil).(*Histogram)
}

// HistogramVec returns (registering on first use) the labeled histogram
// family with the given bucket upper bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, labels, buckets)}
}

// Names returns the registered metric family names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// formatFloat renders a value the way the exposition (and the parser)
// expects: shortest representation that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// labelString renders {k="v",...} for a child, with extra appended last
// (used for histogram `le`). Returns "" when there are no labels at all.
func labelString(keys []string, values []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, values[i])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", extraKey, extraVal)
	}
	sb.WriteByte('}')
	return sb.String()
}

// WriteText renders every registered family in the Prometheus text
// exposition format (HELP/TYPE headers, then one sample line per child;
// histograms expand to cumulative _bucket series plus _sum and _count).
// Families and children are emitted in sorted order, so the output for a
// given metric state is deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind.expoName()); err != nil {
			return err
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		type kv struct {
			values []string
			m      any
		}
		kids := make([]kv, len(keys))
		for i, k := range keys {
			var vals []string
			if k != "" || len(f.labels) > 0 {
				vals = strings.Split(k, "\xff")
			}
			kids[i] = kv{values: vals, m: f.children[k]}
		}
		f.mu.Unlock()
		for _, kid := range kids {
			if err := writeChild(w, f, kid.values, kid.m); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeChild renders one child's sample lines.
func writeChild(w io.Writer, f *family, values []string, m any) error {
	switch c := m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, values, "", ""), c.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(c.Value()))
		return err
	case *Histogram:
		cum := uint64(0)
		for i, le := range c.upper {
			cum += c.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "le", formatFloat(le)), cum); err != nil {
				return err
			}
		}
		cum += c.counts[len(c.upper)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(c.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", ""), c.count.Load())
		return err
	}
	return nil
}
