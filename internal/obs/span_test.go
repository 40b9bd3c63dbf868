package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestIDHexRoundTrip(t *testing.T) {
	for _, id := range []ID{1, 0xdeadbeef, ^ID(0), ID(mix64(42))} {
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("id %d renders %q, want 16 hex chars", id, s)
		}
		back, err := ParseID(s)
		if err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Fatalf("round trip %d -> %q -> %d", id, s, back)
		}
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Fatal("ParseID accepted garbage")
	}

	b, err := json.Marshal(ID(0xab))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"00000000000000ab"` {
		t.Fatalf("json form %s", b)
	}
	var id ID
	if err := json.Unmarshal(b, &id); err != nil || id != 0xab {
		t.Fatalf("json round trip: %v %d", err, id)
	}
}

// TestDeterministicIDs pins the tentpole contract: IDs are pure
// functions of (seed, salt) — rerunning a session reproduces its trace.
func TestDeterministicIDs(t *testing.T) {
	a := NewTraceID(7, HashName("Colorphun/SNIP"))
	b := NewTraceID(7, HashName("Colorphun/SNIP"))
	if a != b {
		t.Fatalf("same seed+salt gave %v and %v", a, b)
	}
	if a == NewTraceID(8, HashName("Colorphun/SNIP")) {
		t.Fatal("different seeds collided")
	}
	if a == NewTraceID(7, HashName("Greenwall/SNIP")) {
		t.Fatal("different salts collided")
	}
	if NewTraceID(0, 0) == 0 {
		t.Fatal("trace ID must never be zero")
	}

	root := Root(a)
	if !root.Valid() || root.Trace != a || root.Span == 0 {
		t.Fatalf("bad root context %+v", root)
	}
	c1, c2 := root.Child(1), root.Child(2)
	if c1 == c2 || c1.Span == root.Span {
		t.Fatalf("child derivation not distinct: %+v %+v", c1, c2)
	}
	if c1 != root.Child(1) {
		t.Fatal("child derivation not deterministic")
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	ctx := Root(NewTraceID(99, 1)).Child(3)
	v := ctx.HeaderValue()
	back, ok := ParseTraceHeader(v)
	if !ok || back != ctx {
		t.Fatalf("header round trip %q -> %+v ok=%v", v, back, ok)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 33), "0000000000000000-0000000000000000"} {
		if _, ok := ParseTraceHeader(bad); ok {
			t.Errorf("accepted bad header %q", bad)
		}
	}
	if (SpanContext{}).HeaderValue() != "" {
		t.Fatal("invalid context must render an empty header")
	}
}

func TestSpanBufferRing(t *testing.T) {
	b := NewSpanBuffer(4)
	ctx := Root(NewTraceID(1, 1))
	for i := 0; i < 6; i++ {
		sp := StartSpan(ctx.Child(uint64(i)), ctx.Span, "op", int64(i))
		b.Finish(&sp, int64(i)+10)
	}
	if b.Len() != 4 || b.Total() != 6 || b.Cap() != 4 {
		t.Fatalf("len=%d total=%d cap=%d", b.Len(), b.Total(), b.Cap())
	}
	spans := b.Spans()
	if spans[0].StartUS != 2 || spans[3].StartUS != 5 {
		t.Fatalf("ring order wrong: %+v", spans)
	}
	for _, s := range spans {
		if s.DurationUS != 10 {
			t.Fatalf("duration %d, want 10", s.DurationUS)
		}
	}
	if got := b.ForTrace(ctx.Trace); len(got) != 4 {
		t.Fatalf("ForTrace returned %d spans", len(got))
	}
	if got := b.ForTrace(ID(12345)); got != nil {
		t.Fatalf("ForTrace on unknown trace returned %+v", got)
	}

	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []Span
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 4 || decoded[0].Trace != ctx.Trace {
		t.Fatalf("json dump decoded to %+v", decoded)
	}
}

// TestSpanBufferNilAndInvalid pins the nil/no-op contract: instrumented
// code carries no "enabled?" flags.
func TestSpanBufferNilAndInvalid(t *testing.T) {
	var b *SpanBuffer
	sp := StartSpan(Root(NewTraceID(1, 1)), 0, "op", 0)
	b.Finish(&sp, 5)
	b.FinishWall(&sp, 5)
	b.Record(sp)
	if b.Len() != 0 || b.Cap() != 0 || b.Total() != 0 || b.Spans() != nil {
		t.Fatal("nil buffer not a no-op")
	}
	if err := b.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	real := NewSpanBuffer(4)
	zero := StartSpan(SpanContext{}, 0, "op", 0)
	real.Finish(&zero, 5)
	real.Record(Span{})
	if real.Len() != 0 {
		t.Fatal("invalid-context span was recorded")
	}
}

// TestSpanBufferConcurrent is the span-export race gate: many writers
// record while a reader drains, under -race via ci.sh.
func TestSpanBufferConcurrent(t *testing.T) {
	b := NewSpanBuffer(128)
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			ctx := Root(NewTraceID(uint64(w), 1))
			for i := 0; i < 2000; i++ {
				sp := StartSpan(ctx.Child(uint64(i)), ctx.Span, "op", int64(i))
				b.FinishWall(&sp, 1)
			}
		}(w)
	}
	done := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-done:
				return
			default:
				_ = b.Spans()
				_ = b.Len()
			}
		}
	}()
	writers.Wait()
	close(done)
	<-drained
	if b.Total() != 4*2000 {
		t.Fatalf("total %d, want %d", b.Total(), 4*2000)
	}
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("snip_ex_ns", "", []int64{10, 100})
	h.Observe(5)
	h.ObserveExemplar(50, ID(0xabc))
	h.ObserveExemplar(5000, ID(0xdef))
	h.ObserveExemplar(7, 0) // zero trace: plain observe

	snap := r.Snapshot().Histograms["snip_ex_ns"]
	if snap.Count != 4 {
		t.Fatalf("count %d", snap.Count)
	}
	if snap.Exemplars == nil {
		t.Fatal("no exemplars exported")
	}
	if snap.Exemplars[0] != "" {
		t.Fatalf("bucket 0 exemplar %q, want none", snap.Exemplars[0])
	}
	if snap.Exemplars[1] != ID(0xabc).String() || snap.Exemplars[2] != ID(0xdef).String() {
		t.Fatalf("exemplars %v", snap.Exemplars)
	}

	// The Prometheus text exposition must stay valid 0.0.4 — no exemplar
	// syntax leaks into it.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "abc") || strings.Contains(sb.String(), "#"+" {") {
		t.Fatalf("exemplar leaked into text exposition:\n%s", sb.String())
	}

	var nilH *Histogram
	nilH.ObserveExemplar(1, ID(1)) // must not panic
}

// TestSpanJSONShape pins the /v1/tracez wire form: a cloud span, which
// sets none of the event-delivery fields, marshals to exactly the bytes
// it did before those fields existed, and a device event.deliver span
// carries them through a JSON round trip.
func TestSpanJSONShape(t *testing.T) {
	cloud := Span{Trace: 0x1f, ID: 0x2e, Parent: 0x3d, Name: "cloud.upload-batch",
		Service: "cloud", WallNS: 1234, Err: true}
	got, err := json.Marshal(cloud)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"trace_id":"000000000000001f","span_id":"000000000000002e","parent_id":"000000000000003d",` +
		`"name":"cloud.upload-batch","service":"cloud","wall_ns":1234,"err":true}`
	if string(got) != want {
		t.Fatalf("cloud span JSON changed:\n got %s\nwant %s", got, want)
	}

	ev := Span{Trace: 1, ID: 2, Parent: 3, Name: "event.deliver", Service: "device",
		StartUS: 10, DurationUS: 5, Hit: true, EventType: "tap", Seq: 7, Probes: 2,
		ComparedBytes: 48, Instr: 900, IPCalls: 1, ShadowChecked: true,
		ShadowErrFields: 3, Energy: 4200}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != ev {
		t.Fatalf("event span JSON round trip:\n got %+v\nwant %+v", back, ev)
	}
}
