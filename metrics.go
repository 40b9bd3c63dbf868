package snip

import (
	"io"

	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/parallel"
)

// Metrics is the public handle on the observability layer: a metrics
// registry plus a span ring. Attach one to Options, a Table,
// or PFIOptions and every instrumented layer (dispatch, memo lookups,
// PFI search, the parallel pool) feeds it.
//
// Instrumentation is strictly observational: a session produces a
// byte-identical Report with Metrics attached or not (pinned by the
// determinism regression tests), and the memo hot path stays
// allocation-free.
type Metrics struct {
	reg   *obs.Registry
	spans *obs.SpanBuffer
}

// NewMetrics creates a registry and a span buffer (a ring of
// obs.DefaultSpanCapacity spans) and instruments the process-wide
// parallel fan-out pool.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	parallel.Instrument(reg)
	return &Metrics{reg: reg, spans: obs.NewSpanBuffer(obs.DefaultSpanCapacity)}
}

// Registry exposes the underlying registry for advanced callers.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// SpanBuffer exposes the distributed-tracing span ring. Instrumented
// layers record session/event/lookup/upload spans into it: each
// delivered event's "event.deliver" span says what it cost (probe,
// handler or snipped instructions, IP calls, shadow check, energy),
// and its "memo.lookup" child how long the probe took (a traced
// session times every probe; an untraced one times 1 in 16, which the
// fleet's snip_fleet_lookup_ns histogram then holds). The same
// trace IDs reappear in the cloud service's /v1/tracez after an upload
// propagates them.
func (m *Metrics) SpanBuffer() *obs.SpanBuffer {
	if m == nil {
		return nil
	}
	return m.spans
}

// Spans returns the retained spans, oldest first.
func (m *Metrics) Spans() []obs.Span {
	if m == nil {
		return nil
	}
	return m.spans.Spans()
}

// WriteSpansJSON writes the retained spans as a JSON array.
func (m *Metrics) WriteSpansJSON(w io.Writer) error { return m.spans.WriteJSON(w) }

// WriteText writes the registry in Prometheus text exposition format.
func (m *Metrics) WriteText(w io.Writer) error { return m.reg.WritePrometheus(w) }

// WriteJSON writes a JSON snapshot of every series.
func (m *Metrics) WriteJSON(w io.Writer) error { return m.reg.WriteJSON(w) }

// Instrument attaches lookup/insert counters and the lookup-latency
// histogram to a deployed table. The instrumented lookup path adds no
// allocations (gated by the benchmark suite). A nil Metrics detaches.
func (t *Table) Instrument(m *Metrics) {
	if m == nil {
		t.t.SetMetrics(nil)
		return
	}
	t.t.SetMetrics(memo.NewTableMetrics(m.reg, "snip"))
}
