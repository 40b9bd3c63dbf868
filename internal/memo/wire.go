package memo

import (
	"sort"

	"snip/internal/trace"
)

// Wire is the map-shaped snapshot of a table's contents: its selection
// and buckets, all exported fields.
type Wire struct {
	Selection Selection
	Buckets   map[string]map[uint64]*Bucket
}

// Export snapshots the table into its wire form. Entries are shared, not
// copied; the exported value must be treated as read-only.
func (t *SnipTable) Export() *Wire {
	return &Wire{Selection: t.sel, Buckets: t.buckets}
}

// FromWire reconstructs a table from its wire form.
func FromWire(w *Wire) *SnipTable {
	if w.Buckets == nil {
		w.Buckets = make(map[string]map[uint64]*Bucket)
	}
	for _, byEvent := range w.Buckets {
		for _, b := range byEvent {
			if b.ByKey == nil {
				b.ByKey = make(map[uint64]*SnipEntry, len(b.Order))
				for _, e := range b.Order {
					b.ByKey[e.StateKey] = e
				}
			}
		}
	}
	sel := w.Selection
	if sel == nil {
		sel = Selection{}
	}
	sel.Canonicalize()
	t := &SnipTable{sel: sel, buckets: w.Buckets}
	t.cacheTypes()
	return t
}

// Fingerprint returns a deterministic digest of the table's contents:
// every entry's event type, keys, instruction weight and output fields,
// folded in a canonical order. Two tables with identical rows produce
// identical fingerprints regardless of map iteration order — the cheap
// way to verify a rollback restored exactly the table that was displaced,
// or that a poisoned copy really differs from its source.
func (t *SnipTable) Fingerprint() uint64 {
	h := trace.HashString("snip-table-v1")
	types := make([]string, 0, len(t.buckets))
	for et := range t.buckets {
		types = append(types, et)
	}
	sort.Strings(types)
	for _, et := range types {
		byEvent := t.buckets[et]
		eks := make([]uint64, 0, len(byEvent))
		for ek := range byEvent {
			eks = append(eks, ek)
		}
		sort.Slice(eks, func(i, j int) bool { return eks[i] < eks[j] })
		h = trace.Combine(h, trace.HashString(et))
		for _, ek := range eks {
			h = trace.Combine(h, ek)
			for _, e := range byEvent[ek].Order {
				h = trace.Combine(h, e.StateKey)
				h = trace.Combine(h, uint64(e.Instr))
				for _, f := range e.Outputs {
					h = trace.Combine(h, trace.HashString(f.Name))
					h = trace.Combine(h, f.Value)
				}
			}
		}
	}
	return h
}
