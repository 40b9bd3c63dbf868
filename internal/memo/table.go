package memo

import (
	"encoding/binary"

	"snip/internal/trace"
	"snip/internal/units"
)

// Table is the read side shared by both table backends: the FlatTable
// (one contiguous arena plus an open-addressing index, see flat.go),
// which is the only table the program builds, ships and serves, and the
// map-of-structs SnipTable, kept as the flat table's test oracle and
// the lookup sweeps' baseline. Everything that serves lookups — schemes,
// the fleet layer, Shared snapshots, the OTA client — talks to this
// interface, so the oracle runs through the same call sites.
//
// Both backends return bit-identical results AND bit-identical lookup
// costs (probes, compared bytes) for every probe; the property tests in
// flat_test.go and the cross-backend session tests in internal/schemes
// pin that equivalence, which is what keeps every paper figure
// byte-identical regardless of backend.
type Table interface {
	// Probe looks up an event of eventType by its two-level key, which
	// the caller computed from the event's necessary inputs; see
	// SnipTable.Probe for the exact contract both backends honor. It is
	// the one probe path: the device computes the keys from a compiled
	// plan, and Lookup from a Resolver.
	Probe(eventType string, eventKey, stateKey uint64) (entry Entry, probes int64, comparedBytes units.Size, ok bool)
	// Lookup resolves the selected fields of eventType by name, keys
	// them as the table's rows are keyed, and probes: the path of the
	// tests, the map oracle and the lookup sweeps.
	Lookup(eventType string, resolve Resolver) (entry Entry, probes int64, comparedBytes units.Size, ok bool)
	// Selection returns the necessary-input selection the table is
	// keyed on.
	Selection() Selection
	// Rows returns the number of entries.
	Rows() int
	// Size returns the modeled deployed size (the paper's table-size
	// figures); identical across backends by construction.
	Size() units.Size
	// Freeze seals the table against mutation; a FlatTable is born
	// frozen and treats this as a no-op.
	Freeze()
	// Frozen reports whether the table is sealed.
	Frozen() bool
	// Fingerprint digests the table contents in canonical order; equal
	// rows give equal fingerprints across backends.
	Fingerprint() uint64
	// SetMetrics attaches (nil detaches) observability counters. Attach
	// before the table is shared.
	SetMetrics(*TableMetrics)
}

// Compile-time interface conformance for both backends.
var (
	_ Table = (*SnipTable)(nil)
	_ Table = (*FlatTable)(nil)
)

// Entry is a hit's view of one table row. It is a small value, so a
// lookup returns it without allocating, and it stays valid for as long
// as the table that returned it: a flat row is read from the image on
// demand, a map row from its SnipEntry. The zero Entry is a miss's.
type Entry struct {
	t   *FlatTable // the flat table holding the row, or nil
	i   uint32     // the row's index in t
	row *SnipEntry // the map table's row, when t is nil
}

// StateKey returns the row's state key.
func (e Entry) StateKey() uint64 {
	if e.t == nil {
		return e.row.StateKey
	}
	return e.t.stateKey(e.i)
}

// Instr returns the dynamic-instruction weight of the profiled
// execution.
func (e Entry) Instr() int64 {
	if e.t == nil {
		return e.row.Instr
	}
	instr, _, _ := e.t.meta(e.i)
	return instr
}

// AppendOutputs appends the row's output fields to dst, in stored order,
// and returns the extended slice. A flat row's names come from the
// image's name pool, so once dst has room nothing allocates.
func (e Entry) AppendOutputs(dst []trace.Field) []trace.Field {
	if e.t == nil {
		return append(dst, e.row.Outputs...)
	}
	out := e.t.outputs(e.i)
	for f := 0; f < len(out); f += flatFieldRecLen {
		rec := out[f : f+flatFieldRecLen]
		dst = append(dst, trace.Field{
			Name:     e.t.names[binary.LittleEndian.Uint32(rec)],
			Category: trace.Category(binary.LittleEndian.Uint32(rec[4:])),
			Size:     units.Size(int64(binary.LittleEndian.Uint64(rec[8:]))),
			Value:    binary.LittleEndian.Uint64(rec[16:]),
		})
	}
	return dst
}
