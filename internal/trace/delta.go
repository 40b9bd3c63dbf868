package trace

import (
	"io"

	"snip/internal/units"
)

// The SNIPDLT1 wire format: one generation step of a game's flat SNIP
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

// magicDelta frames a delta chain on the wire, alongside SNIPBTCH2
// batches and SNIPTEL1 telemetry.
const magicDelta = "SNIPDLT1"

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
	// ships whole instead of as an edit. It is a slice, not a map, so
	// that gob encodes the same delta to the same bytes every time.
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

// EncodeDeltaChain writes a delta chain as one SNIPDLT1 frame — magic +
// gzip(gob) + CRC32 trailer, the framing shared with session batches
// and telemetry.
func EncodeDeltaChain(w io.Writer, c *DeltaChain) error {
	return encodeGobFrame(w, magicDelta, "delta", c)
}

// DecodeDeltaChain reads a delta chain written by EncodeDeltaChain,
// verifying the mandatory CRC32 trailer and refusing to decompress more
// than maxDecoded bytes (DefaultMaxDecodedDelta when <= 0). Corrupt
// input returns an error wrapping ErrBatchChecksum; oversized input one
// wrapping ErrBatchTooLarge. It never panics, whatever the input
// (pinned by FuzzDecodeDelta).
func DecodeDeltaChain(r io.Reader, maxDecoded int64) (*DeltaChain, error) {
	if maxDecoded <= 0 {
		maxDecoded = DefaultMaxDecodedDelta
	}
	var c DeltaChain
	if err := decodeGobFrame(r, magicDelta, "delta", maxDecoded, &c); err != nil {
		return nil, err
	}
	return &c, nil
}
