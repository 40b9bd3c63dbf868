package memo

import (
	"testing"

	"snip/internal/obs"
	"snip/internal/trace"
)

// benchSelection mimics a realistic PFI outcome: a couple of In.Event
// fields folded into the bucket index plus a few state fields compared
// per candidate.
func benchSelection() Selection {
	sel := Selection{"tap": {
		{Name: "event.tap.x", Category: trace.InEvent, Size: 4},
		{Name: "event.tap.y", Category: trace.InEvent, Size: 4},
		{Name: "state.mode", Category: trace.InHistory, Size: 1},
		{Name: "state.level", Category: trace.InHistory, Size: 2},
		{Name: "state.combo", Category: trace.InHistory, Size: 2},
	}}
	sel.Canonicalize()
	return sel
}

// benchTable populates a table with n distinct rows under benchSelection.
func benchTable(n int) *SnipTable {
	t := NewSnipTable(benchSelection())
	for i := 0; i < n; i++ {
		x, y := uint64(i%32), uint64((i/32)%32)
		mode, level, combo := uint64(i%3), uint64(i%7), uint64(i%5)
		t.Insert(&trace.Record{
			EventSeq: int64(i), EventType: "tap", Instr: 100, StateChanged: true,
			Inputs: []trace.Field{
				{Name: "event.tap.x", Category: trace.InEvent, Size: 4, Value: x},
				{Name: "event.tap.y", Category: trace.InEvent, Size: 4, Value: y},
				{Name: "state.mode", Category: trace.InHistory, Size: 1, Value: mode},
				{Name: "state.level", Category: trace.InHistory, Size: 2, Value: level},
				{Name: "state.combo", Category: trace.InHistory, Size: 2, Value: combo},
			},
			Outputs: []trace.Field{
				{Name: "state.out", Category: trace.OutHistory, Size: 4, Value: x + y},
			},
		})
	}
	return t
}

// hitResolver serves the values of row i of benchTable's population.
func hitResolver(i int) Resolver {
	x, y := uint64(i%32), uint64((i/32)%32)
	mode, level, combo := uint64(i%3), uint64(i%7), uint64(i%5)
	vals := map[string]uint64{
		"event.tap.x": x, "event.tap.y": y,
		"state.mode": mode, "state.level": level, "state.combo": combo,
	}
	return func(name string) (uint64, bool) {
		v, ok := vals[name]
		return v, ok
	}
}

func BenchmarkSelectionKeys(b *testing.B) {
	fields := benchSelection()["tap"]
	steps := fieldSteps(fields)
	resolve := hitResolver(1234)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkE, sinkS = keys(fields, steps, resolve)
	}
}

var sinkE, sinkS uint64

func BenchmarkSnipTableLookupHit(b *testing.B) {
	t := benchTable(2048)
	resolve := hitResolver(777)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := t.Lookup("tap", resolve); !ok {
			b.Fatal("expected hit")
		}
	}
}

// BenchmarkSnipTableLookupHitInstrumented pins the tentpole contract:
// attaching a live metrics registry to the hot path must not add a
// single allocation per lookup (ci.sh gates this at 0 allocs/op).
func BenchmarkSnipTableLookupHitInstrumented(b *testing.B) {
	t := benchTable(2048)
	t.SetMetrics(NewTableMetrics(obs.NewRegistry(), "snip"))
	resolve := hitResolver(777)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := t.Lookup("tap", resolve); !ok {
			b.Fatal("expected hit")
		}
	}
}

// BenchmarkSharedLookupParallel measures fleet-scale serving: every P
// hammers one shared, frozen table through the RCU pointer. Because
// Lookup is strictly read-only the benchmark must scale near-linearly
// with GOMAXPROCS (the ISSUE acceptance bar is ≥4× at 8 workers vs 1:
// run with -cpu 1,8 to compare), and stays 0 allocs/op on the hit path
// (gated by ci.sh).
func BenchmarkSharedLookupParallel(b *testing.B) {
	shared := NewShared(benchTable(2048))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		resolve := hitResolver(777)
		for pb.Next() {
			if _, _, _, ok := shared.Load().Lookup("tap", resolve); !ok {
				b.Fatal("expected hit")
			}
		}
	})
}

func BenchmarkSnipTableLookupMiss(b *testing.B) {
	t := benchTable(2048)
	// A value combination never inserted: x beyond the population range.
	vals := map[string]uint64{
		"event.tap.x": 99, "event.tap.y": 99,
		"state.mode": 9, "state.level": 9, "state.combo": 9,
	}
	resolve := func(name string) (uint64, bool) { v, ok := vals[name]; return v, ok }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := t.Lookup("tap", resolve); ok {
			b.Fatal("expected miss")
		}
	}
}

func BenchmarkBuildSnip(b *testing.B) {
	d := synthProfile(4096)
	sel := Selection{"tap": {
		{Name: "event.tap.x", Category: trace.InEvent, Size: 4},
		{Name: "state.mode", Category: trace.InHistory, Size: 1},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := BuildSnip(d, sel); t.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkBuildFlat times a flat table build from BenchmarkBuildSnip's
// profile and selection two ways: direct (BuildFlat) and through the map
// table (BuildSnip, then Flatten). ci.sh gates direct's allocs/op and
// its ns/op against the map path's.
func BenchmarkBuildFlat(b *testing.B) {
	d := synthProfile(4096)
	sel := Selection{"tap": {
		{Name: "event.tap.x", Category: trace.InEvent, Size: 4},
		{Name: "state.mode", Category: trace.InHistory, Size: 1},
	}}
	// wide keys on the noise input too, so every row is an entry and the
	// image, not the keying, is most of what a build allocates.
	wide := Selection{"tap": {
		{Name: "event.tap.x", Category: trace.InEvent, Size: 4},
		{Name: "state.mode", Category: trace.InHistory, Size: 1},
		{Name: "state.noise", Category: trace.InHistory, Size: 8},
	}}
	for _, path := range []struct {
		name  string
		build func() (*FlatTable, error)
	}{
		{"direct", func() (*FlatTable, error) { return BuildFlat(d, sel) }},
		{"map", func() (*FlatTable, error) { return Flatten(BuildSnip(d, sel)) }},
		{"wide", func() (*FlatTable, error) { return BuildFlat(d, wide) }},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ft, err := path.build(); err != nil || ft.Rows() == 0 {
					b.Fatal("empty table", err)
				}
			}
		})
	}
}

func BenchmarkBuildNaive(b *testing.B) {
	d := synthProfile(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := BuildNaive(d); t.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkBuildEventOnly(b *testing.B) {
	d := synthProfile(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := BuildEventOnly(d); t.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkSharedLookupSpan is the tracing half of the hot-path gate: a
// shared-table probe bracketed by a span start/finish into a ring plus
// a latency exemplar — the full per-probe tracing cost a device would
// pay. Must stay 0 allocs/op (gated by ci.sh).
func BenchmarkSharedLookupSpan(b *testing.B) {
	shared := NewShared(benchTable(2048))
	reg := obs.NewRegistry()
	hist := reg.Histogram("bench_lookup_ns", "", obs.NanoBuckets())
	spans := obs.NewSpanBuffer(1024)
	ctx := obs.Root(obs.NewTraceID(7, obs.HashName("bench/shared")))
	resolve := hitResolver(777)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := obs.StartSpan(ctx.Child(uint64(i)), ctx.Span, "memo.lookup", int64(i))
		_, _, _, ok := shared.Load().Lookup("tap", resolve)
		if !ok {
			b.Fatal("expected hit")
		}
		sp.Hit = ok
		spans.FinishWall(&sp, 120)
		hist.ObserveExemplar(120, ctx.Trace)
	}
}
