package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"snip/internal/units"
)

// SessionEvents is one session's events-only log paired with the seed
// that regenerates the game content it was played on — the unit of the
// batched fleet upload.
type SessionEvents struct {
	Seed uint64
	Log  *EventLog
}

// SessionBatch packs many sessions of one game into a single upload.
// The stream-separated, delta-coded SNIPBTCH3 payload below makes the
// batch far smaller than the per-session uploads it replaces: type names
// go once per batch, and each event field has its own stream, where a
// fixed-period sensor's Time steps form one run and a value rarely moves
// far from the same value in the previous event of its type.
type SessionBatch struct {
	Game     string
	Sessions []SessionEvents
}

// The SNIPBTCH3 payload — the gzip'd body of a batch frame. Every
// integer is a uvarint; signed quantities are zigzag varints
// (binary.AppendVarint).
//
//	header:    game string, session count,
//	           type count, per type its string and value-column count,
//	           per session its seed, log game string and event count
//	directory: the byte length of every stream below
//	streams:   type id of every event
//	           Seq delta of every event
//	           value-count delta of every event
//	           per type, in table order:
//	             Time delta of every event of the type
//	             per value column j: value j of every event of the
//	             type that has one
//
// A string is its byte length followed by its bytes. The type table
// lists every event type of the batch in first-use order, so the
// encoding is deterministic; a type has as many value columns as its
// longest event has values. Streams run over the sessions' events in
// order. Seq is a delta from the previous event of the session. The
// value count and Time are deltas from the previous event of the same
// type in the session (0 before the first). Value j is a delta from
// value j of that event, or from 0 when it has no value j or there is
// none. Each type's Time has its own stream so that a sparse type's
// events do not break up a fixed-period type's run of equal steps.

// The fewest payload bytes each element can occupy; the decoder bounds
// every declared count by the bytes left before allocating for it.
const (
	minSessionBytes = 3 // seed, game length, event count
	minTypeBytes    = 2 // name length, column count
	minEventBytes   = 4 // type id, Seq, value-count and Time deltas
)

// batchLevel is the gzip level of batch frames. On the stream layout,
// level 6 (the default) takes ~2.3x its compress time for frames ~5%
// smaller, and level 1 ~0.45x for frames ~20% larger.
const batchLevel = 4

// EncodeBatch writes a session batch as magic + gzip(payload) + CRC32
// trailer — the wire form of POST /v1/upload-batch. Every session must
// carry a log.
func EncodeBatch(w io.Writer, b *SessionBatch) error {
	e := batchEncoders.Get().(*batchEncoder)
	defer batchEncoders.Put(e)
	if err := e.encode(b); err != nil {
		return fmt.Errorf("trace: encode batch: %w", err)
	}
	return writeFrame(w, magicBatch, "batch", batchLevel, func(zw io.Writer) error {
		for _, s := range e.sections {
			if _, err := zw.Write(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// DecodeBatch reads a session batch written by EncodeBatch, capping the
// decompressed size at DefaultMaxDecodedBatch.
func DecodeBatch(r io.Reader) (*SessionBatch, error) {
	return DecodeBatchLimit(r, DefaultMaxDecodedBatch)
}

// DecodeBatchLimit reads a session batch, verifying the mandatory CRC32
// trailer and refusing to decompress more than maxDecoded bytes.
// Corrupt input — a missing trailer, a bad checksum, a malformed
// payload, bytes past its end — returns an error wrapping ErrBatchChecksum or describing the fault;
// oversized input one wrapping ErrBatchTooLarge. It never panics,
// whatever the input (pinned by FuzzDecodeBatch).
func DecodeBatchLimit(r io.Reader, maxDecoded int64) (*SessionBatch, error) {
	var b *SessionBatch
	err := readFrame(r, magicBatch, "batch", maxDecoded, func(zr io.Reader) error {
		return withPayload(zr, func(p []byte) (err error) {
			b, err = parseBatch(p)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Encoders keep their streams and tables between batches.
var batchEncoders = sync.Pool{New: func() any {
	return &batchEncoder{ids: make(map[string]int)}
}}

// batchEncoder builds a batch's SNIPBTCH3 payload in one walk over its
// events. The type table grows as the walk meets new types, a type's
// value columns as it meets longer events, and every stream is its own
// buffer.
type batchEncoder struct {
	ids                   map[string]int
	types                 []batchType
	sessions              []byte   // the session table
	typeIDs, seqs, counts []byte   // the streams of every event
	head                  []byte   // header and directory
	sections              [][]byte // the payload in order
}

// batchType is one event type's table entry, its streams (Time, then
// value column j at 1+j), and the session's previous event of the type.
type batchType struct {
	name    string
	streams [][]byte
	prevV   []int64
	prevT   units.Time
}

func (e *batchEncoder) encode(b *SessionBatch) error {
	clear(e.ids)
	e.types, e.sessions = e.types[:0], e.sessions[:0]
	e.typeIDs, e.seqs, e.counts = e.typeIDs[:0], e.seqs[:0], e.counts[:0]
	for i, s := range b.Sessions {
		if s.Log == nil {
			return fmt.Errorf("session %d has no log", i)
		}
		e.sessions = binary.AppendUvarint(e.sessions, s.Seed)
		e.sessions = appendString(e.sessions, s.Log.Game)
		e.sessions = binary.AppendUvarint(e.sessions, uint64(len(s.Log.Events)))
		for k := range e.types {
			e.types[k].prevV, e.types[k].prevT = nil, 0
		}
		var seq int64
		for _, ev := range s.Log.Events {
			id, ok := e.ids[ev.Type]
			if !ok {
				id = e.addType(ev.Type)
			}
			bt := &e.types[id]
			e.typeIDs = binary.AppendUvarint(e.typeIDs, uint64(id))
			e.seqs = binary.AppendVarint(e.seqs, ev.Seq-seq)
			e.counts = binary.AppendVarint(e.counts, int64(len(ev.Values)-len(bt.prevV)))
			bt.streams[0] = binary.AppendVarint(bt.streams[0], int64(ev.Time-bt.prevT))
			for len(bt.streams) <= len(ev.Values) {
				bt.addStream()
			}
			for j, v := range ev.Values {
				if j < len(bt.prevV) {
					v -= bt.prevV[j]
				}
				bt.streams[1+j] = binary.AppendVarint(bt.streams[1+j], v)
			}
			seq, bt.prevV, bt.prevT = ev.Seq, ev.Values, ev.Time
		}
	}

	e.head = appendString(e.head[:0], b.Game)
	e.head = binary.AppendUvarint(e.head, uint64(len(b.Sessions)))
	e.head = binary.AppendUvarint(e.head, uint64(len(e.types)))
	e.sections = append(e.sections[:0], nil, e.typeIDs, e.seqs, e.counts)
	for k := range e.types {
		bt := &e.types[k]
		e.head = appendString(e.head, bt.name)
		e.head = binary.AppendUvarint(e.head, uint64(len(bt.streams)-1))
		e.sections = append(e.sections, bt.streams...)
		bt.prevV = nil // keep no caller's values alive in the pool
	}
	e.head = append(e.head, e.sessions...)
	for _, s := range e.sections[1:] {
		e.head = binary.AppendUvarint(e.head, uint64(len(s)))
	}
	e.sections[0] = e.head
	return nil
}

// addType appends a type with an empty Time stream to the table,
// reusing the stream buffers of the entry an earlier batch left in its
// slot, and returns its id.
func (e *batchEncoder) addType(name string) int {
	id := len(e.types)
	e.ids[name] = id
	e.types = slices.Grow(e.types, 1)[:id+1]
	t := &e.types[id]
	*t = batchType{name: name, streams: t.streams[:0]}
	t.addStream()
	return id
}

// addStream appends an empty stream, reusing the buffer an earlier
// batch left in its slot.
func (t *batchType) addStream() {
	n := len(t.streams)
	t.streams = slices.Grow(t.streams, 1)[:n+1]
	t.streams[n] = t.streams[n][:0]
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// payloadReader walks a SNIPBTCH3 header or a SNIPDLT2 payload; name
// says which in its errors. The first fault sticks in err and every
// later read returns zero, so the parser checks err once per element
// rather than after every field.
type payloadReader struct {
	name string
	buf  []byte
	off  int
	err  error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s payload at byte %d: "+format, append([]any{r.name, r.off}, args...)...)
	}
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.off += n
	return v
}

// fixed returns the next n bytes, a little-endian fixed-width integer,
// or n zero bytes after a fault.
func (r *payloadReader) fixed(n int) []byte {
	if r.err == nil && len(r.buf)-r.off < n {
		r.fail("truncated %d-byte integer", n)
	}
	if r.err != nil {
		return make([]byte, n)
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

// count reads a declared element count and fails unless the bytes left
// could hold that many elements of at least minBytes each — the check
// that keeps a few hostile bytes from sizing a huge allocation.
func (r *payloadReader) count(what string, minBytes int) int {
	n := r.uvarint()
	if left := uint64(len(r.buf) - r.off); r.err == nil && n > left/uint64(minBytes) {
		r.fail("%d %s declared with %d bytes left", n, what, left)
		return 0
	}
	return int(n)
}

func (r *payloadReader) str(what string) string {
	n := r.count(what+" bytes", 1)
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// parseBatch decodes a SNIPBTCH3 payload written by EncodeBatch. The
// events of a session share one backing array for their values.
func parseBatch(p []byte) (*SessionBatch, error) {
	r := &payloadReader{name: "batch", buf: p}
	game := r.str("game")
	nSessions := r.count("sessions", minSessionBytes)
	nTypes := r.count("event types", minTypeBytes)
	if r.err != nil {
		return nil, r.err
	}
	// Streams 0-2 are every event's type id, Seq and value count; a
	// type's Time stream and value columns follow. Each stream takes a
	// directory byte at least.
	types := make([]batchTypeState, nTypes)
	nStreams := 3
	for i := range types {
		t := &types[i]
		t.name = r.str("event type")
		t.time = nStreams
		nStreams += 1 + r.count("value columns", 1)
		t.end = nStreams
		if left := len(p) - r.off; r.err == nil && nStreams > left {
			r.fail("%d streams declared with %d bytes left", nStreams, left)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	var sessions []SessionEvents
	if nSessions > 0 {
		sessions = make([]SessionEvents, nSessions)
	}
	var need int // the fewest stream bytes the events declared so far take
	for i := range sessions {
		sessions[i].Seed = r.uvarint()
		log := &EventLog{Game: r.str("log game")}
		n := r.count("events", minEventBytes)
		if need += n * minEventBytes; r.err == nil && need > len(p)-r.off {
			r.fail("%d events declared with %d bytes left", need/minEventBytes, len(p)-r.off)
		}
		if r.err != nil {
			return nil, r.err
		}
		if n > 0 {
			log.Events = make([]LoggedEvent, n)
		}
		sessions[i].Log = log
	}
	// The directory: each stream's length, held in its off until the
	// directory's end, where the streams start back to back, is known.
	streams := make([]batchStream, nStreams)
	total := 0
	for k := range streams {
		streams[k].off = r.count("stream bytes", 1)
		if total += streams[k].off; r.err == nil && total > len(p)-r.off {
			r.fail("streams of %d bytes declared with %d bytes left", total, len(p)-r.off)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if r.off+total != len(p) {
		return nil, fmt.Errorf("%w: %d bytes past the end of the batch payload", ErrBatchChecksum, len(p)-r.off-total)
	}
	for k := range streams {
		n := streams[k].off
		streams[k] = batchStream{buf: p[r.off : r.off+n : r.off+n]}
		r.off += n
	}
	ids, seqs, counts := &streams[0], &streams[1], &streams[2]

	// The session's values decode into vals, scratch reused across
	// sessions; until the session's end an event's Values only has their
	// count for its length.
	var vals []int64
	for i := range sessions {
		log := sessions[i].Log
		vals = vals[:0]
		for k := range types {
			types[k].lo, types[k].hi, types[k].t = 0, 0, 0
		}
		var seq int64
		for j := range log.Events {
			id := ids.uvarint()
			if ids.bad || id >= uint64(nTypes) {
				return nil, fmt.Errorf("batch type-id stream at byte %d: no id, or id %d past the %d-entry table", ids.off, id, nTypes)
			}
			t := &types[id]
			seq += seqs.varint()
			t.t += streams[t.time].varint()
			lo, prev, cols := len(vals), vals[t.lo:t.hi], streams[t.time+1:t.end]
			nv := int64(len(prev)) + counts.varint()
			if nv < 0 || nv > int64(len(cols)) {
				return nil, fmt.Errorf("batch value-count stream at byte %d: value count %d for a type with %d value columns", counts.off, nv, len(cols))
			}
			for k := range cols[:nv] {
				v := cols[k].varint()
				if cols[k].bad {
					return nil, fmt.Errorf("batch value stream at byte %d: truncated or overlong varint", cols[k].off)
				}
				if k < len(prev) {
					v += prev[k]
				}
				vals = append(vals, v)
			}
			t.lo, t.hi = lo, len(vals)
			log.Events[j] = LoggedEvent{Type: t.name, Seq: seq, Time: units.Time(t.t)}
			if nv > 0 {
				log.Events[j].Values = vals[lo:]
			}
		}
		shared := make([]int64, len(vals))
		copy(shared, vals)
		off := 0
		for j := range log.Events {
			if nv := len(log.Events[j].Values); nv > 0 {
				log.Events[j].Values = shared[off : off+nv : off+nv]
				off += nv
			}
		}
	}
	for k, s := range streams {
		if s.bad || s.off != len(s.buf) {
			return nil, fmt.Errorf("%w: batch stream %d is cut short or has bytes past its end", ErrBatchChecksum, k)
		}
	}
	return &SessionBatch{Game: game, Sessions: sessions}, nil
}

// batchStream walks one SNIPBTCH3 stream. A batch has a stream per type
// and value column, so it carries no name or error of its own, as a
// payloadReader does: a fault sets bad and leaves off where it was, so
// every later read fails too, and the parser checks bad wherever a read
// sizes what it decodes, and every stream at the end.
type batchStream struct {
	buf []byte
	off int
	bad bool
}

func (s *batchStream) uvarint() uint64 {
	v, n := binary.Uvarint(s.buf[s.off:])
	if n <= 0 {
		s.bad = true
		return 0
	}
	s.off += n
	return v
}

// varint reads a zigzag varint, as binary.Varint does.
func (s *batchStream) varint() int64 {
	u := s.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// batchTypeState is the decoder's entry for one event type: its name, its
// streams (Time, then value columns up to end) and the session's
// previous event of the type (values vals[lo:hi], Time t).
type batchTypeState struct {
	name              string
	time, end, lo, hi int
	t                 int64
}
