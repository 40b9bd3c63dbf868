package trace

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

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
// The columnar, delta-coded SNIPBTCH2 payload below is what makes the
// batch far smaller than the per-session uploads it replaces: event
// type names are sent once per batch, Seq and Time advance by small
// steps, and a sensor value rarely moves far from the same value in the
// previous event of its type.
type SessionBatch struct {
	Game     string
	Sessions []SessionEvents
}

// The SNIPBTCH2 payload — the gzip'd body of a batch frame. Every
// integer is a uvarint; signed quantities are zigzag varints
// (binary.AppendVarint).
//
//	batch:   game string, session count, type count, type strings
//	session: seed, log game string, event count, events
//	event:   type id, Seq delta, Time delta, value count, value deltas
//
// A string is its byte length followed by its bytes. The type table
// lists every event type of the batch in first-use order, so the
// encoding is deterministic. Seq and Time are deltas from the previous
// event of the session (0 before the first). Value j is a delta from
// value j of the previous event of the same type in the session, or
// from 0 when that event has no value j or there is none.

// The fewest payload bytes each element can occupy; the decoder bounds
// every declared count by the bytes left before allocating for it.
const (
	minSessionBytes = 3 // seed, game length, event count
	minEventBytes   = 4 // type id, Seq delta, Time delta, value count
)

// EncodeBatch writes a session batch as magic + gzip(payload) + CRC32
// trailer — the wire form of POST /v1/upload-batch. Every session must
// carry a log.
func EncodeBatch(w io.Writer, b *SessionBatch) error {
	p, err := appendBatch(nil, b)
	if err != nil {
		return fmt.Errorf("trace: encode batch: %w", err)
	}
	return writeFrame(w, magicBatch, "batch", gzip.DefaultCompression, func(zw io.Writer) error {
		_, err := zw.Write(p)
		return err
	})
}

// DecodeBatch reads a session batch written by EncodeBatch, capping the
// decompressed size at DefaultMaxDecodedBatch.
func DecodeBatch(r io.Reader) (*SessionBatch, error) {
	return DecodeBatchLimit(r, DefaultMaxDecodedBatch)
}

// DecodeBatchLimit reads a session batch, verifying the mandatory CRC32
// trailer and refusing to decompress more than maxDecoded bytes.
// Trailerless frames are rejected with ErrBatchTrailerless. Corrupt
// input — a bad checksum, a malformed payload, bytes past its end —
// returns an error wrapping ErrBatchChecksum or describing the fault;
// oversized input one wrapping ErrBatchTooLarge. It never panics,
// whatever the input (pinned by FuzzDecodeBatch).
func DecodeBatchLimit(r io.Reader, maxDecoded int64) (*SessionBatch, error) {
	var b *SessionBatch
	err := readFrame(r, magicBatch, "batch", maxDecoded, func(zr io.Reader) error {
		p, err := io.ReadAll(zr)
		if err != nil {
			return err
		}
		b, err = parseBatch(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// BatchTransferSize returns the encoded (compressed) size of a session
// batch — what the fleet actually puts on the wire per upload.
func BatchTransferSize(b *SessionBatch) (units.Size, error) {
	var cw countingWriter
	if err := EncodeBatch(&cw, b); err != nil {
		return 0, err
	}
	return units.Size(cw.n), nil
}

// appendBatch appends b's SNIPBTCH2 payload to dst.
func appendBatch(dst []byte, b *SessionBatch) ([]byte, error) {
	ids := make(map[string]uint64)
	var types []string
	for i, s := range b.Sessions {
		if s.Log == nil {
			return nil, fmt.Errorf("session %d has no log", i)
		}
		for _, e := range s.Log.Events {
			if _, ok := ids[e.Type]; !ok {
				ids[e.Type] = uint64(len(types))
				types = append(types, e.Type)
			}
		}
	}
	dst = appendString(dst, b.Game)
	dst = binary.AppendUvarint(dst, uint64(len(b.Sessions)))
	dst = binary.AppendUvarint(dst, uint64(len(types)))
	for _, t := range types {
		dst = appendString(dst, t)
	}
	prev := make([][]int64, len(types)) // per type: the last event's values
	for _, s := range b.Sessions {
		clear(prev)
		dst = binary.AppendUvarint(dst, s.Seed)
		dst = appendString(dst, s.Log.Game)
		dst = binary.AppendUvarint(dst, uint64(len(s.Log.Events)))
		var seq int64
		var t units.Time
		for _, e := range s.Log.Events {
			id := ids[e.Type]
			dst = binary.AppendUvarint(dst, id)
			dst = binary.AppendVarint(dst, e.Seq-seq)
			dst = binary.AppendVarint(dst, int64(e.Time-t))
			seq, t = e.Seq, e.Time
			dst = binary.AppendUvarint(dst, uint64(len(e.Values)))
			p := prev[id]
			for j, v := range e.Values {
				if j < len(p) {
					v -= p[j]
				}
				dst = binary.AppendVarint(dst, v)
			}
			prev[id] = e.Values
		}
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// payloadReader walks a SNIPBTCH2 or SNIPDLT2 payload; name says which
// in its errors. The first fault sticks in err and every later read
// returns zero, so the parser checks err once per element rather than
// after every field.
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

// parseBatch decodes a SNIPBTCH2 payload written by appendBatch. The
// events of a session share one backing array for their values.
func parseBatch(p []byte) (*SessionBatch, error) {
	r := &payloadReader{name: "batch", buf: p}
	b := &SessionBatch{Game: r.str("game")}
	nSessions := r.count("sessions", minSessionBytes)
	nTypes := r.count("event types", 1)
	if r.err != nil {
		return nil, r.err
	}
	types := make([]string, nTypes)
	for i := range types {
		types[i] = r.str("event type")
	}
	if r.err != nil {
		return nil, r.err
	}
	if nSessions > 0 {
		b.Sessions = make([]SessionEvents, nSessions)
	}
	// Scratch reused across sessions: the values decoded so far, each
	// event's value count, and per type the [lo, hi) range in vals of
	// the previous event of that type.
	var vals []int64
	var counts []int
	prevLo, prevHi := make([]int, nTypes), make([]int, nTypes)
	for i := range b.Sessions {
		seed := r.uvarint()
		game := r.str("log game")
		nEvents := r.count("events", minEventBytes)
		if r.err != nil {
			return nil, r.err
		}
		log := &EventLog{Game: game}
		if nEvents > 0 {
			log.Events = make([]LoggedEvent, nEvents)
		}
		vals, counts = vals[:0], counts[:0]
		clear(prevLo)
		clear(prevHi)
		var seq, t int64
		for j := range log.Events {
			id := r.uvarint()
			seq += r.varint()
			t += r.varint()
			nv := r.count("values", 1)
			if r.err == nil && id >= uint64(nTypes) {
				r.fail("event type id %d past the %d-entry table", id, nTypes)
			}
			if r.err != nil {
				return nil, r.err
			}
			lo, prev := len(vals), vals[prevLo[id]:prevHi[id]]
			for k := 0; k < nv; k++ {
				v := r.varint()
				if k < len(prev) {
					v += prev[k]
				}
				vals = append(vals, v)
			}
			prevLo[id], prevHi[id] = lo, len(vals)
			counts = append(counts, nv)
			log.Events[j] = LoggedEvent{Type: types[id], Seq: seq, Time: units.Time(t)}
		}
		if r.err != nil {
			return nil, r.err
		}
		shared := make([]int64, len(vals))
		copy(shared, vals)
		off := 0
		for j, nv := range counts {
			if nv > 0 {
				log.Events[j].Values = shared[off : off+nv : off+nv]
				off += nv
			}
		}
		b.Sessions[i] = SessionEvents{Seed: seed, Log: log}
	}
	if r.off != len(p) {
		return nil, fmt.Errorf("%w: %d bytes past the end of the batch payload", ErrBatchChecksum, len(p)-r.off)
	}
	return b, nil
}
