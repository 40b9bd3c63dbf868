// Package obs is the repository's zero-dependency observability core:
// atomic counters, gauges and fixed-bucket histograms behind a registry
// that exposes everything in the Prometheus text format and as a JSON
// snapshot, plus distributed-tracing spans (span.go) that record the
// life of individual events and requests.
//
// Two properties drive the design:
//
//   - Allocation-free hot path. Incrementing a Counter or observing into
//     a Histogram is a handful of atomic operations on pre-registered
//     storage — 0 allocs/op, pinned by bench_test.go and the ci.sh
//     allocation gate. All the layout work (series names, label strings,
//     bucket bounds) happens once at registration time.
//
//   - Nil no-op. Every handle method is safe on a nil receiver, and a nil
//     *Registry hands out nil handles. Instrumented code carries no
//     "enabled?" flags: it increments unconditionally, and an
//     uninstrumented run pays one nil check per call site. Metrics are
//     strictly write-only from the simulation's point of view, so
//     figures are byte-identical with instrumentation on or off.
//
// Series names follow the Prometheus data model, with labels baked into
// the registered name: "snip_memo_lookups_total" or
// `snip_memo_lookups_total{table="snip"}`. Registration is idempotent —
// asking for the same series twice returns the same handle.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; all methods are nil-safe no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative to keep the series monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; all methods are nil-safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of int64 observations (the repo
// observes nanoseconds, bytes and depths — all integers). Bucket bounds
// are upper-inclusive and ascending; an implicit +Inf bucket catches the
// rest. Observe is a linear scan over at most a few dozen bounds plus
// three atomic adds — allocation-free.
type Histogram struct {
	bounds    []int64
	counts    []atomic.Int64  // len(bounds)+1; last is +Inf
	exemplars []atomic.Uint64 // len(bounds)+1; last trace ID seen per bucket
	sum       atomic.Int64
	count     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveExemplar records one value and attaches the trace ID that
// produced it as the bucket's exemplar (last writer wins — an exemplar
// is a debugging foothold, not a statistic). Exemplars surface in the
// JSON Snapshot so a slow bucket links straight to a trace in
// /v1/tracez; they are omitted from the Prometheus text exposition,
// which has no exemplar syntax in version 0.0.4. A zero trace ID
// degrades to a plain Observe. Lock-free: two atomic adds plus one
// atomic store.
func (h *Histogram) ObserveExemplar(v int64, trace ID) {
	if h == nil {
		return
	}
	i := h.bucket(v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if trace != 0 {
		h.exemplars[i].Store(uint64(trace))
	}
}

// bucket returns the index of the bucket containing v.
func (h *Histogram) bucket(v int64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil handle).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// NanoBuckets returns the standard latency ladder used for *_ns
// histograms: 250 ns to 1 s.
func NanoBuckets() []int64 {
	return []int64{
		250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
		100_000, 250_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
	}
}

// Registry owns a set of named series. A nil *Registry is valid and
// hands out nil (no-op) handles, so callers wire instrumentation
// unconditionally and let the registry decide whether it exists.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string // per family, first registration wins
	kinds      map[string]string // per family: counter | gauge | histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
		kinds:      make(map[string]string),
	}
}

// family strips the label body: `name{a="b"}` -> "name".
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// splitSeries returns the family and the label body without braces.
func splitSeries(series string) (fam, labels string) {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return series, ""
	}
	return series[:i], strings.TrimSuffix(series[i+1:], "}")
}

// register records family metadata and panics on a kind collision — two
// series of the same family must share one metric type, a programming
// error worth failing loudly on.
func (r *Registry) register(series, kind, help string) {
	if series == "" || family(series) == "" {
		panic("obs: empty series name")
	}
	fam := family(series)
	if k, ok := r.kinds[fam]; ok && k != kind {
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", fam, kind, k))
	}
	r.kinds[fam] = kind
	if _, ok := r.help[fam]; !ok {
		r.help[fam] = help
	}
}

// Counter returns the counter registered under the series name,
// creating it on first use. A nil registry returns a nil handle.
func (r *Registry) Counter(series, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[series]; ok {
		return c
	}
	r.register(series, "counter", help)
	c := &Counter{}
	r.counters[series] = c
	return c
}

// Gauge returns the gauge registered under the series name, creating it
// on first use. A nil registry returns a nil handle.
func (r *Registry) Gauge(series, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[series]; ok {
		return g
	}
	r.register(series, "gauge", help)
	g := &Gauge{}
	r.gauges[series] = g
	return g
}

// Histogram returns the histogram registered under the series name,
// creating it with the given ascending upper bounds on first use. A nil
// registry returns a nil handle.
func (r *Registry) Histogram(series, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[series]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: %s: bucket bounds not ascending", series))
		}
	}
	r.register(series, "histogram", help)
	h := &Histogram{
		bounds:    append([]int64(nil), bounds...),
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Uint64, len(bounds)+1),
	}
	r.histograms[series] = h
	return h
}

// WritePrometheus writes every series in the Prometheus text exposition
// format (families sorted, HELP/TYPE once per family, cumulative
// histogram buckets). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type entry struct {
		series string
		c      *Counter
		g      *Gauge
		h      *Histogram
	}
	r.mu.Lock()
	entries := make([]entry, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n, c := range r.counters {
		entries = append(entries, entry{series: n, c: c})
	}
	for n, g := range r.gauges {
		entries = append(entries, entry{series: n, g: g})
	}
	for n, h := range r.histograms {
		entries = append(entries, entry{series: n, h: h})
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	kinds := make(map[string]string, len(r.kinds))
	for k, v := range r.kinds {
		kinds[k] = v
	}
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool {
		fi, fj := family(entries[i].series), family(entries[j].series)
		if fi != fj {
			return fi < fj
		}
		return entries[i].series < entries[j].series
	})

	lastFam := ""
	for _, e := range entries {
		fam, labels := splitSeries(e.series)
		if fam != lastFam {
			if h := help[fam]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, kinds[fam]); err != nil {
				return err
			}
			lastFam = fam
		}
		switch {
		case e.c != nil:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.series, e.c.Value()); err != nil {
				return err
			}
		case e.g != nil:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.series, e.g.Value()); err != nil {
				return err
			}
		case e.h != nil:
			if err := writeHistogram(w, fam, labels, e.h); err != nil {
				return err
			}
		}
	}
	return nil
}

// bucketSeries builds `fam_bucket{labels,le="bound"}`.
func bucketSeries(fam, labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("%s_bucket{le=%q}", fam, le)
	}
	return fmt.Sprintf("%s_bucket{%s,le=%q}", fam, labels, le)
}

func suffixSeries(fam, suffix, labels string) string {
	if labels == "" {
		return fam + suffix
	}
	return fam + suffix + "{" + labels + "}"
}

func writeHistogram(w io.Writer, fam, labels string, h *Histogram) error {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(fam, labels, fmt.Sprintf("%d", b)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(fam, labels, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", suffixSeries(fam, "_sum", labels), h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", suffixSeries(fam, "_count", labels), h.Count())
	return err
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // per bucket, NOT cumulative; last is +Inf
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
	// Exemplars holds the last trace ID observed into each bucket ("" if
	// none); present only when at least one bucket has one.
	Exemplars []string `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time copy of every series, JSON-encodable.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current values of every series. A nil registry
// returns a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for n, h := range r.histograms {
			hs := HistogramSnapshot{
				Bounds: append([]int64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Sum:    h.Sum(),
				Count:  h.Count(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			for i := range h.exemplars {
				if id := h.exemplars[i].Load(); id != 0 {
					if hs.Exemplars == nil {
						hs.Exemplars = make([]string, len(h.exemplars))
					}
					hs.Exemplars[i] = ID(id).String()
				}
			}
			s.Histograms[n] = hs
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. A nil registry writes
// an empty object.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}
