package trace

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"snip/internal/units"
)

// The SNIPDLT2 wire format: one generation step of a game's flat SNIP
// table, expressed as entry-level edits against the previous flat image.
// The cloud diffs consecutive SNIPFLT1 images after every rebuild and
// keeps a short chain of deltas; a device reports the generation it is
// serving and receives either the chain that brings it current or a
// full-image fallback when it is too far behind. Profiling is
// append-only (Dataset.Merge) and the flat builder is canonical, so
// under a stable selection consecutive tables differ by the handful of
// entries the new sessions added — the delta is O(changed entries)
// where the full image is O(table).
//
// The types here are deliberately trace-level (strings, key hashes,
// Fields): the flat image layout lives in internal/memo, which imports
// this package, so the codec speaks only in the identity keys both ends
// already share — the open-addressing event/state key hashes.

// magicDelta frames a delta chain on the wire, alongside SNIPBTCH3
// batches and SNIPTEL1 telemetry. A frame of any other format, SNIPDLT1
// included, fails on its magic, and the device falls back to the full
// image.
const magicDelta = "SNIPDLT2"

// deltaLevel is the gzip level of delta frames. Most of a delta is
// 64-bit key hashes and output digests that no level compresses much:
// on learn-shaped deltas the default level took ~2x as long to encode
// for a frame ~6% smaller.
const deltaLevel = gzip.BestSpeed

// DefaultMaxDecodedDelta caps the decompressed size DecodeDeltaChain
// will accept — the same gzip-bomb guard the batch decoder applies. A
// delta chain is bounded by a few full tables, far under this.
const DefaultMaxDecodedDelta = 1 << 28

// DeltaKey identifies one table entry across generations: the event
// type plus the two open-addressing key hashes the flat index probes
// on. The keys are carried verbatim (never recomputed from records), so
// apply treats them as opaque identity.
type DeltaKey struct {
	Type     string
	EventKey uint64
	StateKey uint64
}

// DeltaEntry is one added-or-changed entry record. Pos is the entry's
// scan position within its bucket in the TARGET table: bucket order is
// the charged probe cost, so the patched table must reproduce it
// byte-exactly, not merely contain the same entries.
type DeltaEntry struct {
	Key     DeltaKey
	Pos     uint32
	Instr   int64
	Outputs []Field
}

// SelectionField mirrors one selected input field of the target
// selection (memo.SelectedField without the memo dependency).
type SelectionField struct {
	Name     string
	Category Category
	Size     units.Size
}

// SelectionType is one event type's share of the target selection.
type SelectionType struct {
	EventType string
	Fields    []SelectionField
}

// TableDelta is one generation step old→new of one game's flat table.
// FromCRC/ToCRC are the arena CRC32s of the two flat images: apply
// refuses a base image whose CRC is not FromCRC and fails unless the
// patched image's CRC is exactly ToCRC, so a delta can never silently
// produce a table other than the one the cloud built.
type TableDelta struct {
	Game        string
	FromVersion int
	ToVersion   int
	FromCRC     uint32
	ToCRC       uint32
	// Selection is the full target selection, one element per event
	// type in sorted type order. It is tiny next to the entries, so it
	// ships whole instead of as an edit.
	Selection []SelectionType
	Removed   []DeltaKey
	Upserts   []DeltaEntry
}

// DeltaChain is the payload of a delta-format /v1/update response: the
// consecutive deltas that carry a device from its reported generation
// to the cloud's latest, oldest first.
type DeltaChain struct {
	Game   string
	Deltas []TableDelta
}

// The SNIPDLT2 payload — the gzip'd body of a delta frame. Integers
// are uvarints and signed ones zigzag varints (binary.AppendVarint),
// except where a width is given; fixed-width integers are little-endian.
//
//	strings: count, strings
//	shapes:  count, shapes: name id, category, size
//	header:  chain game id, delta count, deltas:
//	         game id, from and to version, from and to CRC (4 bytes each),
//	         selection type count, types: event type id, field count,
//	         fields: name id, category, size;
//	         removed key count, upsert count
//	columns: type id of every key
//	         Instr of every upsert
//	         output count of every upsert
//	         shape id of every output
//	         EventKey of every key (8 bytes)
//	         StateKey of every key (8 bytes)
//	         Pos of every upsert (zigzag step, see posBase)
//	         value of every output
//
// A string is its byte length followed by its bytes. The string table
// holds the games, event types and field names; the shape table every
// distinct (name, category, size) of an output, so an output is a shape
// id plus its value. Both list their entries in the order a walk of the
// chain first meets them — game, then delta by delta its game,
// selection, removed keys and upserts — so the encoding is
// deterministic. A column runs over the deltas in order and, within a
// delta, over its removed keys and then its upserts. The key hashes and
// output digests are most of the bytes and compress poorly; the columns
// keep the small integers together, where they do.

// The fewest payload bytes each element can occupy; the decoder bounds
// every declared count by the bytes left before allocating for it.
const (
	minShapeBytes      = 3  // name id, category, size
	minDeltaBytes      = 14 // game id, versions, CRCs, three counts
	minSelTypeBytes    = 2  // event type id, field count
	minSelFieldBytes   = 3  // name id, category, size
	minRemovedKeyBytes = 17 // type id, EventKey, StateKey
	minUpsertBytes     = 20 // a key, Pos, Instr, output count
	minOutputBytes     = 2  // shape id, value
)

// EncodeDeltaChain writes a delta chain as one SNIPDLT2 frame — magic +
// gzip(payload) + CRC32 trailer, the framing shared with session batches
// and telemetry.
func EncodeDeltaChain(w io.Writer, c *DeltaChain) error {
	e := deltaEncoders.Get().(*deltaEncoder)
	defer deltaEncoders.Put(e)
	e.encode(c)
	return writeFrame(w, magicDelta, "delta", deltaLevel, func(zw io.Writer) error {
		for _, s := range e.sections() {
			if _, err := zw.Write(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// DecodeDeltaChain reads a delta chain written by EncodeDeltaChain,
// verifying the mandatory CRC32 trailer and refusing to decompress more
// than maxDecoded bytes (DefaultMaxDecodedDelta when <= 0). Corrupt
// input — a bad checksum, a malformed payload, bytes past its end —
// returns an error wrapping ErrBatchChecksum or describing the fault;
// oversized input one wrapping ErrBatchTooLarge. It never panics,
// whatever the input (pinned by FuzzDecodeDelta).
func DecodeDeltaChain(r io.Reader, maxDecoded int64) (*DeltaChain, error) {
	if maxDecoded <= 0 {
		maxDecoded = DefaultMaxDecodedDelta
	}
	var c *DeltaChain
	err := readFrame(r, magicDelta, "delta", maxDecoded, func(zr io.Reader) error {
		return withPayload(zr, func(p []byte) (err error) {
			c, err = parseDeltaChain(p)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Encoders keep their buffers and tables between frames.
var deltaEncoders = sync.Pool{New: func() any {
	return &deltaEncoder{strIDs: make(map[string]uint64), shapeIDs: make(map[Field]uint64)}
}}

// deltaEncoder builds a chain's SNIPDLT2 payload in one walk. The
// tables grow as the walk meets new strings and shapes, and every
// column is its own buffer.
type deltaEncoder struct {
	strIDs   map[string]uint64
	shapeIDs map[Field]uint64 // keyed with Value 0

	prefix, strs, shapes, head         []byte
	types, pos, instr, nOut, outShapes []byte
	eventKeys, stateKeys, values       []byte
}

func (e *deltaEncoder) encode(c *DeltaChain) {
	clear(e.strIDs)
	clear(e.shapeIDs)
	for _, b := range []*[]byte{&e.prefix, &e.strs, &e.shapes, &e.head, &e.types, &e.pos,
		&e.instr, &e.nOut, &e.outShapes, &e.eventKeys, &e.stateKeys, &e.values} {
		*b = (*b)[:0]
	}
	e.head = binary.AppendUvarint(e.head, e.str(c.Game))
	e.head = binary.AppendUvarint(e.head, uint64(len(c.Deltas)))
	for i := range c.Deltas {
		d := &c.Deltas[i]
		e.head = binary.AppendUvarint(e.head, e.str(d.Game))
		e.head = binary.AppendVarint(e.head, int64(d.FromVersion))
		e.head = binary.AppendVarint(e.head, int64(d.ToVersion))
		e.head = binary.LittleEndian.AppendUint32(e.head, d.FromCRC)
		e.head = binary.LittleEndian.AppendUint32(e.head, d.ToCRC)
		e.head = binary.AppendUvarint(e.head, uint64(len(d.Selection)))
		for _, st := range d.Selection {
			e.head = binary.AppendUvarint(e.head, e.str(st.EventType))
			e.head = binary.AppendUvarint(e.head, uint64(len(st.Fields)))
			for _, f := range st.Fields {
				e.head = binary.AppendUvarint(e.head, e.str(f.Name))
				e.head = binary.AppendUvarint(e.head, uint64(f.Category))
				e.head = binary.AppendUvarint(e.head, uint64(f.Size))
			}
		}
		e.head = binary.AppendUvarint(e.head, uint64(len(d.Removed)))
		e.head = binary.AppendUvarint(e.head, uint64(len(d.Upserts)))
		for _, k := range d.Removed {
			e.key(k)
		}
		for i := range d.Upserts {
			u := &d.Upserts[i]
			e.key(u.Key)
			e.pos = binary.AppendVarint(e.pos, int64(u.Pos)-int64(posBase(d.Upserts, i)))
			e.instr = binary.AppendVarint(e.instr, u.Instr)
			e.nOut = binary.AppendUvarint(e.nOut, uint64(len(u.Outputs)))
			for _, f := range u.Outputs {
				e.outShapes = binary.AppendUvarint(e.outShapes, e.shape(f))
				e.values = binary.AppendUvarint(e.values, f.Value)
			}
		}
	}
	e.prefix = binary.AppendUvarint(e.prefix, uint64(len(e.strIDs)))
	e.prefix = append(e.prefix, e.strs...)
	e.prefix = binary.AppendUvarint(e.prefix, uint64(len(e.shapeIDs)))
	e.prefix = append(e.prefix, e.shapes...)
}

// sections returns the payload encode built, in order.
func (e *deltaEncoder) sections() [][]byte {
	return [][]byte{e.prefix, e.head, e.types, e.instr, e.nOut, e.outShapes,
		e.eventKeys, e.stateKeys, e.pos, e.values}
}

// posBase is what upsert i's Pos is coded against: the previous
// upsert's Pos when both are in one bucket, else 0. The diff lists a
// bucket's upserts in scan order, so the steps are small.
func posBase(upserts []DeltaEntry, i int) uint32 {
	if i > 0 && upserts[i-1].Key.Type == upserts[i].Key.Type && upserts[i-1].Key.EventKey == upserts[i].Key.EventKey {
		return upserts[i-1].Pos
	}
	return 0
}

// key appends k to the key columns.
func (e *deltaEncoder) key(k DeltaKey) {
	e.types = binary.AppendUvarint(e.types, e.str(k.Type))
	e.eventKeys = binary.LittleEndian.AppendUint64(e.eventKeys, k.EventKey)
	e.stateKeys = binary.LittleEndian.AppendUint64(e.stateKeys, k.StateKey)
}

// str returns s's id in the string table, adding it if it is new.
func (e *deltaEncoder) str(s string) uint64 {
	id, ok := e.strIDs[s]
	if !ok {
		id = uint64(len(e.strIDs))
		e.strIDs[s] = id
		e.strs = appendString(e.strs, s)
	}
	return id
}

// shape returns the id of output f's shape, adding the shape if it is
// new.
func (e *deltaEncoder) shape(f Field) uint64 {
	f.Value = 0
	id, ok := e.shapeIDs[f]
	if !ok {
		id = uint64(len(e.shapeIDs))
		e.shapeIDs[f] = id
		e.shapes = binary.AppendUvarint(e.shapes, e.str(f.Name))
		e.shapes = binary.AppendUvarint(e.shapes, uint64(f.Category))
		e.shapes = binary.AppendUvarint(e.shapes, uint64(f.Size))
	}
	return id
}

// appendDeltaChain appends c's SNIPDLT2 payload to dst.
func appendDeltaChain(dst []byte, c *DeltaChain) []byte {
	e := deltaEncoders.Get().(*deltaEncoder)
	defer deltaEncoders.Put(e)
	e.encode(c)
	for _, s := range e.sections() {
		dst = append(dst, s...)
	}
	return dst
}

// deltaReader walks a SNIPDLT2 payload once its tables are read.
type deltaReader struct {
	payloadReader
	strs   []string
	shapes []Field
}

// str reads a string id and returns its table entry.
func (r *deltaReader) str() string {
	id := r.uvarint()
	if r.err == nil && id >= uint64(len(r.strs)) {
		r.fail("string id %d past the %d-entry table", id, len(r.strs))
	}
	if r.err != nil {
		return ""
	}
	return r.strs[id]
}

// readTables reads the string and shape tables.
func (r *deltaReader) readTables() {
	r.strs = make([]string, r.count("strings", 1))
	for i := range r.strs {
		r.strs[i] = r.payloadReader.str("string")
	}
	n := r.count("output shapes", minShapeBytes)
	if r.err != nil {
		return
	}
	r.shapes = make([]Field, n)
	for i := range r.shapes {
		r.shapes[i] = Field{Name: r.str(), Category: Category(r.uvarint()), Size: units.Size(r.uvarint())}
	}
}

// parseDeltaChain decodes a SNIPDLT2 payload written by appendDeltaChain.
// The removed keys of all deltas share one backing array, and so do the
// upserts and the outputs.
func parseDeltaChain(p []byte) (*DeltaChain, error) {
	r := &deltaReader{payloadReader: payloadReader{name: "delta", buf: p}}
	r.readTables()
	c := &DeltaChain{Game: r.str()}
	nDeltas := r.count("deltas", minDeltaBytes)
	if r.err != nil {
		return nil, r.err
	}
	if nDeltas > 0 {
		c.Deltas = make([]TableDelta, nDeltas)
	}
	// need is the fewest bytes the columns take for the keys and upserts
	// declared so far; every declaration must leave room for it. The
	// keys and upserts are allocated once the whole header has passed.
	var need uint64
	var nRemoved, nUpserts int
	sizes := make([][2]int, nDeltas) // removed keys, upserts
	for i := range c.Deltas {
		d := &c.Deltas[i]
		d.Game = r.str()
		d.FromVersion = int(r.varint())
		d.ToVersion = int(r.varint())
		d.FromCRC = binary.LittleEndian.Uint32(r.fixed(4))
		d.ToCRC = binary.LittleEndian.Uint32(r.fixed(4))
		nTypes := r.count("selection types", minSelTypeBytes)
		if r.err != nil {
			return nil, r.err
		}
		if nTypes > 0 {
			d.Selection = make([]SelectionType, nTypes)
		}
		for j := range d.Selection {
			st := &d.Selection[j]
			st.EventType = r.str()
			nFields := r.count("selection fields", minSelFieldBytes)
			if r.err != nil {
				return nil, r.err
			}
			if nFields > 0 {
				st.Fields = make([]SelectionField, nFields)
			}
			for k := range st.Fields {
				st.Fields[k] = SelectionField{Name: r.str(), Category: Category(r.uvarint()), Size: units.Size(r.uvarint())}
			}
		}
		nr := r.count("removed keys", minRemovedKeyBytes)
		nu := r.count("upserts", minUpsertBytes)
		need += uint64(nr)*minRemovedKeyBytes + uint64(nu)*minUpsertBytes
		if left := uint64(len(p) - r.off); r.err == nil && need > left {
			r.fail("%d removed keys and %d upserts need %d bytes, %d left", nr, nu, need, left)
		}
		if r.err != nil {
			return nil, r.err
		}
		sizes[i] = [2]int{nr, nu}
		nRemoved += nr
		nUpserts += nu
	}
	keys := uint64(nRemoved + nUpserts)
	removed, upserted := make([]DeltaKey, nRemoved), make([]DeltaEntry, nUpserts)
	for i, n := range sizes {
		if n[0] > 0 {
			c.Deltas[i].Removed, removed = removed[:n[0]:n[0]], removed[n[0]:]
		}
		if n[1] > 0 {
			c.Deltas[i].Upserts, upserted = upserted[:n[1]:n[1]], upserted[n[1]:]
		}
	}

	eachKey := func(f func(k *DeltaKey)) {
		for i := range c.Deltas {
			d := &c.Deltas[i]
			for j := range d.Removed {
				f(&d.Removed[j])
			}
			for j := range d.Upserts {
				f(&d.Upserts[j].Key)
			}
		}
	}
	eachUpsert := func(f func(u *DeltaEntry)) {
		for i := range c.Deltas {
			for j := range c.Deltas[i].Upserts {
				f(&c.Deltas[i].Upserts[j])
			}
		}
	}
	eachKey(func(k *DeltaKey) { k.Type = r.str() })
	eachUpsert(func(u *DeltaEntry) { u.Instr = r.varint() })
	// The output counts are read twice: once to size the shared output
	// array, then again to slice it.
	counts := r.payloadReader
	var outputs uint64
	eachUpsert(func(*DeltaEntry) {
		outputs += uint64(r.count("outputs", minOutputBytes))
		if left := uint64(len(p) - r.off); r.err == nil && outputs*minOutputBytes+keys*16 > left {
			r.fail("%d outputs and %d keys declared with %d bytes left", outputs, keys, left)
		}
	})
	if r.err != nil {
		return nil, r.err
	}
	fields := make([]Field, outputs)
	off := 0
	eachUpsert(func(u *DeltaEntry) {
		if n := int(counts.uvarint()); n > 0 {
			u.Outputs = fields[off : off+n : off+n]
			off += n
		}
	})
	for i := range fields {
		id := r.uvarint()
		if r.err == nil && id >= uint64(len(r.shapes)) {
			r.fail("shape id %d past the %d-entry table", id, len(r.shapes))
		}
		if r.err != nil {
			return nil, r.err
		}
		fields[i] = r.shapes[id]
	}
	eachKey(func(k *DeltaKey) { k.EventKey = binary.LittleEndian.Uint64(r.fixed(8)) })
	eachKey(func(k *DeltaKey) { k.StateKey = binary.LittleEndian.Uint64(r.fixed(8)) })
	for i := range c.Deltas {
		ups := c.Deltas[i].Upserts
		for j := range ups {
			pos := int64(posBase(ups, j)) + r.varint()
			if r.err == nil && (pos < 0 || pos > math.MaxUint32) {
				r.fail("upsert position %d outside 32 bits", pos)
			}
			ups[j].Pos = uint32(pos)
		}
	}
	for i := range fields {
		fields[i].Value = r.uvarint()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(p) {
		return nil, fmt.Errorf("%w: %d bytes past the end of the delta payload", ErrBatchChecksum, len(p)-r.off)
	}
	return c, nil
}
