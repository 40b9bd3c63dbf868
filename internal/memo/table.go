package memo

import "snip/internal/units"

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
	// Lookup probes for a pending event; see SnipTable.Lookup for the
	// exact contract both backends honor.
	Lookup(eventType string, resolve Resolver) (entry *SnipEntry, probes int64, comparedBytes units.Size, ok bool)
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
