package obs

import "testing"

// The benchmarks below are the repo's allocation gate for the metrics
// hot path: ci.sh fails the build if any of them reports >0 allocs/op.

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	r := NewRegistry()
	g := r.Gauge("bench_gauge", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_ns", "", NanoBuckets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xFFFF))
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkSpanStartFinish is the span half of the allocation gate:
// deriving a child context, starting a span on the stack and finishing
// it into the ring must stay 0 allocs/op (ci.sh fails otherwise).
func BenchmarkSpanStartFinish(b *testing.B) {
	buf := NewSpanBuffer(1024)
	ctx := Root(NewTraceID(7, HashName("bench")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := ctx.Child(uint64(i))
		sp := StartSpan(child, ctx.Span, "memo.lookup", int64(i))
		sp.Hit = true
		buf.FinishWall(&sp, 120)
	}
}

func BenchmarkSpanStartFinishNil(b *testing.B) {
	var buf *SpanBuffer
	ctx := Root(NewTraceID(7, HashName("bench")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(ctx.Child(uint64(i)), ctx.Span, "memo.lookup", int64(i))
		buf.FinishWall(&sp, 120)
	}
}

func BenchmarkHistogramObserveExemplar(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_ex_ns", "", NanoBuckets())
	trace := NewTraceID(7, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveExemplar(int64(i&0xFFFF), trace)
	}
}

// BenchmarkWindowAdd is the windowed time-series half of the
// allocation gate: folding a pre-aggregated pair into a sim-time bucket
// must stay 0 allocs/op (ci.sh fails otherwise).
func BenchmarkWindowAdd(b *testing.B) {
	w := NewWindow(1_000_000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(int64(i&0xFFFFF), 3, 7)
	}
}

func BenchmarkWindowObserveNil(b *testing.B) {
	var w *Window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(int64(i), 1)
	}
}
