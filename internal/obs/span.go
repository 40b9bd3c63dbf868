package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// This file is the distributed half of the observability layer: spans
// with parent links and cross-process context propagation, so one trace
// ID follows an event chain from device dispatch through the batched
// upload into the cloud profiler's ingest handlers.
//
// Two constraints shape the design, both inherited from obs.go:
//
//   - Determinism. Trace and span IDs are derived with the same
//     splitmix64 finalizer internal/rng uses to seed its xoshiro state,
//     keyed by session seed — never by wall clock or a global RNG — so
//     the same seed always produces the same IDs and attaching a span
//     buffer perturbs nothing (figures stay byte-identical).
//   - Allocation-free hot path. StartSpan returns a plain value on the
//     caller's stack; Finish copies it into a pre-allocated ring. A nil
//     *SpanBuffer is a valid no-op, mirroring the nil-registry contract.

// ID is a 64-bit trace or span identifier. It JSON-encodes as 16 hex
// characters (the on-wire form used in the X-Snip-Trace header and the
// /v1/tracez dump); the zero ID means "absent".
type ID uint64

// String renders the ID as 16 lowercase hex characters.
func (id ID) String() string {
	var b [16]byte
	const hexdigits = "0123456789abcdef"
	v := uint64(id)
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// MarshalJSON encodes the ID as a quoted hex string.
func (id ID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON decodes a quoted hex string written by MarshalJSON.
func (id *ID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	if s == "" {
		*id = 0
		return nil
	}
	parsed, err := ParseID(s)
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// ParseID parses the 16-hex-char form produced by ID.String.
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad id %q: %w", s, err)
	}
	return ID(v), nil
}

// mix64 is the splitmix64 finalizer — the same mixer internal/rng uses
// to seed xoshiro state — applied here as a deterministic hash for ID
// derivation. It is bijective, so distinct inputs cannot collide.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashName hashes a series/span name with FNV-1a — allocation-free,
// stable across runs, used to salt ID derivation per subsystem. It
// starts from the standard 64-bit offset basis; trace.KeySeed, which
// the data-path digests start from, is that number with its last digit
// dropped, and the two must not be unified.
func HashName(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// NewTraceID derives the deterministic trace ID for one session: the
// same (seed, salt) pair always yields the same ID. Salt distinguishes
// subsystems replaying the same seed (e.g. HashName of game+scheme).
// The result is never zero.
func NewTraceID(seed, salt uint64) ID {
	id := mix64(mix64(seed) ^ mix64(salt))
	if id == 0 {
		id = 1
	}
	return ID(id)
}

// SpanContext is the propagated position in a trace: which trace, and
// which span is the current parent. The zero value is "not tracing".
type SpanContext struct {
	Trace ID
	Span  ID
}

// Valid reports whether the context carries a trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

// Root returns the root context of a trace: the root span's ID is
// derived from the trace ID itself.
func Root(trace ID) SpanContext {
	if trace == 0 {
		return SpanContext{}
	}
	return SpanContext{Trace: trace, Span: ID(mix64(uint64(trace)))}
}

// Child derives the deterministic context of the n-th child of this
// span. Distinct (parent, n) pairs map to distinct span IDs.
func (c SpanContext) Child(n uint64) SpanContext {
	if !c.Valid() {
		return SpanContext{}
	}
	return SpanContext{Trace: c.Trace, Span: ID(mix64(uint64(c.Span) ^ mix64(n)))}
}

// TraceHeader is the HTTP header that propagates a SpanContext across
// the device/cloud process boundary.
const TraceHeader = "X-Snip-Trace"

// HeaderValue renders the context for the X-Snip-Trace header:
// "<trace-hex>-<span-hex>". Empty when the context is invalid.
func (c SpanContext) HeaderValue() string {
	if !c.Valid() {
		return ""
	}
	return c.Trace.String() + "-" + c.Span.String()
}

// ParseTraceHeader parses a HeaderValue. It returns ok=false on an
// empty or malformed value — propagation is best-effort, never an
// ingest error.
func ParseTraceHeader(v string) (SpanContext, bool) {
	if len(v) != 33 || v[16] != '-' {
		return SpanContext{}, false
	}
	tr, err1 := ParseID(v[:16])
	sp, err2 := ParseID(v[17:])
	if err1 != nil || err2 != nil || tr == 0 {
		return SpanContext{}, false
	}
	return SpanContext{Trace: tr, Span: sp}, true
}

// Span is one recorded operation in a trace. Simulated quantities
// (StartUS, DurationUS) are deterministic; WallNS is wall clock and
// varies run to run — it lives only in the trace, never in figures.
// It is a flat value struct so instrumented code assembles it on the
// stack and hands it to a SpanBuffer without allocating.
type Span struct {
	Trace  ID `json:"trace_id"`
	ID     ID `json:"span_id"`
	Parent ID `json:"parent_id,omitempty"`

	// Name is the operation ("session", "memo.lookup", "upload.batch",
	// "cloud.ingest", ...); Service the process role ("device", "cloud").
	Name    string `json:"name"`
	Service string `json:"service,omitempty"`

	// StartUS/DurationUS are simulated time where the subsystem has a
	// simulated clock (0 otherwise); WallNS is measured wall time. A
	// traced device session times every probe, so each memo.lookup span
	// carries one; untraced sessions time 1 probe in 16 and record no
	// span for any.
	StartUS    int64 `json:"start_us,omitempty"`
	DurationUS int64 `json:"duration_us,omitempty"`
	WallNS     int64 `json:"wall_ns,omitempty"`

	// Hit and Err carry the two outcomes dashboards filter on. On a
	// device "event.deliver" span Hit means the event was
	// short-circuited.
	Hit bool `json:"hit,omitempty"`
	Err bool `json:"err,omitempty"`

	// What one delivered event did, set only on "event.deliver" spans
	// (zero, and so absent from the JSON, on every other span). All are
	// simulated and deterministic; the probe's wall time is the
	// memo.lookup child's WallNS.
	EventType     string `json:"event_type,omitempty"`
	Seq           int64  `json:"seq,omitempty"`
	Probes        int64  `json:"probes,omitempty"`
	ComparedBytes int64  `json:"compared_bytes,omitempty"`
	// Instr is the handler instructions executed, or on a hit the
	// instructions the table snipped.
	Instr           int64 `json:"instr,omitempty"`
	IPCalls         int   `json:"ip_calls,omitempty"`
	ShadowChecked   bool  `json:"shadow_checked,omitempty"`
	ShadowErrFields int64 `json:"shadow_err_fields,omitempty"`
	// Energy is what the meter was charged while the event was
	// delivered and handled, in the meter's native units.
	Energy int64 `json:"energy,omitempty"`
}

// StartSpan begins a span at the given context under the given parent.
// The result is plain data on the caller's stack; nothing is recorded
// until a SpanBuffer.Finish (or Record) call. An invalid context yields
// a zero span, which Finish discards — callers need no "enabled?" flag.
func StartSpan(ctx SpanContext, parent ID, name string, startUS int64) Span {
	if !ctx.Valid() {
		return Span{}
	}
	return Span{Trace: ctx.Trace, ID: ctx.Span, Parent: parent, Name: name, StartUS: startUS}
}

// SpanBuffer retains the most recent spans in a fixed-capacity ring;
// once the ring wraps, the oldest span is overwritten. A nil
// *SpanBuffer is a valid no-op.
type SpanBuffer struct {
	mu    sync.Mutex
	ring  []Span
	next  int
	full  bool
	total int64
}

// DefaultSpanCapacity is the ring size used when NewSpanBuffer is
// given a non-positive capacity.
const DefaultSpanCapacity = 4096

// NewSpanBuffer returns a buffer retaining up to capacity spans
// (DefaultSpanCapacity if capacity <= 0).
func NewSpanBuffer(capacity int) *SpanBuffer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanBuffer{ring: make([]Span, capacity)}
}

// Record stores one span, overwriting the oldest when full. Spans with
// a zero trace ID (from an invalid StartSpan context) are discarded.
func (b *SpanBuffer) Record(s Span) {
	if b == nil || s.Trace == 0 {
		return
	}
	b.mu.Lock()
	b.ring[b.next] = s
	b.next++
	if b.next == len(b.ring) {
		b.next = 0
		b.full = true
	}
	b.total++
	b.mu.Unlock()
}

// Finish closes a span at endUS simulated time and records it.
func (b *SpanBuffer) Finish(s *Span, endUS int64) {
	if b == nil || s.Trace == 0 {
		return
	}
	s.DurationUS = endUS - s.StartUS
	b.Record(*s)
}

// FinishWall closes a span with a measured wall-clock duration and
// records it.
func (b *SpanBuffer) FinishWall(s *Span, wallNS int64) {
	if b == nil || s.Trace == 0 {
		return
	}
	s.WallNS = wallNS
	b.Record(*s)
}

// Len returns how many spans are currently retained.
func (b *SpanBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.full {
		return len(b.ring)
	}
	return b.next
}

// Cap returns the ring capacity.
func (b *SpanBuffer) Cap() int {
	if b == nil {
		return 0
	}
	return len(b.ring)
}

// Total returns how many spans were ever recorded, including those the
// ring has since overwritten.
func (b *SpanBuffer) Total() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Spans returns the retained spans oldest-first.
func (b *SpanBuffer) Spans() []Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.full {
		return append([]Span(nil), b.ring[:b.next]...)
	}
	out := make([]Span, 0, len(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// ForTrace returns the retained spans of one trace, oldest-first.
func (b *SpanBuffer) ForTrace(trace ID) []Span {
	var out []Span
	for _, s := range b.Spans() {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSON writes the retained spans as an indented JSON array.
func (b *SpanBuffer) WriteJSON(w io.Writer) error {
	spans := b.Spans()
	if spans == nil {
		spans = []Span{}
	}
	out, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(out); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}
