package memo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"snip/internal/trace"
)

// Flat-image delta diff/apply: the cloud diffs consecutive SNIPFLT1
// images after every rebuild into a trace.TableDelta (entry-level edits
// keyed by the open-addressing key hashes), and a device patches its
// current image forward by replaying the edits into a fresh table and
// recompiling the canonical image. Because the flat builder is a
// deterministic function of the table contents, "patch then recompile"
// reproduces the cloud's image byte-exactly — which the mandatory
// ToCRC check proves before the table can reach a memo.Shared swap.
//
// Profiling is append-only (Dataset.Merge) and BuildSnip keeps
// first-profiled entries on conflicts, so under a stable selection a
// rebuild only appends entries to bucket tails and adds buckets: the
// delta is O(new entries). A selection change rewrites every key of the
// types it touches, removing whole buckets' keys and upserting them
// back. Such deltas are common and still pass the cloud's size check:
// in perfbench learn rounds one RaceKings delta removes 5813 keys and
// upserts 7121, encoding to 252 KB against a 710 KB image, and no round
// fell back to the full image. ApplyDelta therefore rebuilds each
// touched bucket in one pass, O(base + delta), however many keys one
// bucket loses.

// ErrDeltaMismatch is wrapped by every ApplyDelta rejection that means
// "this delta does not belong on this base": base-CRC mismatch, edits
// referencing entries the base does not hold, and a patched image whose
// CRC differs from the delta's ToCRC. A device hitting it (e.g. after a
// guard rollback left it on an older generation than it reported)
// recovers by fetching the full image.
var ErrDeltaMismatch = errors.New("memo: delta does not match base table")

// ArenaCRC returns the CRC32/IEEE of the image's arena — the generation
// identity the delta protocol negotiates with (header field [48:52]).
func (t *FlatTable) ArenaCRC() uint32 {
	return binary.LittleEndian.Uint32(t.img[48:])
}

// walkFlat visits every bucket in stored (canonical) order with its
// owning type name, event key and entry slice.
func (t *FlatTable) walkFlat(fn func(et string, ek uint64, entries []SnipEntry)) {
	byHash := make(map[uint64]string, len(t.types))
	for name, ft := range t.types {
		byHash[ft.hash] = name
	}
	for bi := 0; bi < t.bucketCnt; bi++ {
		rec := t.arena[t.bucketsOff+flatBucketRecLen*bi:]
		th := binary.LittleEndian.Uint64(rec)
		ek := binary.LittleEndian.Uint64(rec[8:])
		first := binary.LittleEndian.Uint32(rec[16:])
		count := binary.LittleEndian.Uint32(rec[20:])
		fn(byHash[th], ek, t.entries[first:uint64(first)+uint64(count)])
	}
}

// selectionToWire converts a Selection into the trace-level form a
// delta carries, sorted by event type (NameHash is derived, not
// shipped).
func selectionToWire(sel Selection) []trace.SelectionType {
	w := make([]trace.SelectionType, 0, len(sel))
	for et, fs := range sel {
		out := make([]trace.SelectionField, len(fs))
		for i, f := range fs {
			out[i] = trace.SelectionField{Name: f.Name, Category: f.Category, Size: f.Size}
		}
		w = append(w, trace.SelectionType{EventType: et, Fields: out})
	}
	sort.Slice(w, func(i, j int) bool { return w[i].EventType < w[j].EventType })
	return w
}

// selectionFromWire rebuilds a canonical Selection from its delta form.
func selectionFromWire(w []trace.SelectionType) Selection {
	sel := make(Selection, len(w))
	for _, st := range w {
		out := make([]SelectedField, len(st.Fields))
		for i, f := range st.Fields {
			out[i] = SelectedField{Name: f.Name, Category: f.Category, Size: f.Size}
		}
		sel[st.EventType] = out
	}
	sel.Canonicalize()
	return sel
}

func deltaEntryEqual(a, b *SnipEntry) bool {
	if a.Instr != b.Instr || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			return false
		}
	}
	return true
}

// DiffFlat computes the delta that patches old into new: removed keys,
// plus one upsert per added-or-changed entry carrying its scan position
// in the target bucket. The walk order is canonical on both sides, so
// identical inputs produce an identical delta. game and the version
// pair are stamped into the delta for chain bookkeeping; the CRCs come
// from the two images.
func DiffFlat(game string, fromVersion, toVersion int, old, new *FlatTable) (*trace.TableDelta, error) {
	if old == nil || new == nil {
		return nil, fmt.Errorf("memo: diff: nil table")
	}
	oldEntries := make(map[trace.DeltaKey]*SnipEntry, old.Rows())
	old.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
		for i := range entries {
			oldEntries[trace.DeltaKey{Type: et, EventKey: ek, StateKey: entries[i].StateKey}] = &entries[i]
		}
	})

	d := &trace.TableDelta{
		Game:        game,
		FromVersion: fromVersion,
		ToVersion:   toVersion,
		FromCRC:     old.ArenaCRC(),
		ToCRC:       new.ArenaCRC(),
		Selection:   selectionToWire(new.sel),
	}
	seen := make(map[trace.DeltaKey]bool, old.Rows())
	new.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
		for i := range entries {
			k := trace.DeltaKey{Type: et, EventKey: ek, StateKey: entries[i].StateKey}
			if prev, ok := oldEntries[k]; ok {
				seen[k] = true
				if deltaEntryEqual(prev, &entries[i]) {
					continue
				}
			}
			d.Upserts = append(d.Upserts, trace.DeltaEntry{
				Key:     k,
				Pos:     uint32(i),
				Instr:   entries[i].Instr,
				Outputs: entries[i].Outputs,
			})
		}
	})
	old.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
		for i := range entries {
			k := trace.DeltaKey{Type: et, EventKey: ek, StateKey: entries[i].StateKey}
			if !seen[k] {
				d.Removed = append(d.Removed, k)
			}
		}
	})
	return d, nil
}

type deltaBucketKey struct {
	et string
	ek uint64
}

// bucketEdits is one bucket's share of a delta: the state keys it
// removes and its upserts in delta order.
type bucketEdits struct {
	removed map[uint64]bool
	upserts []*trace.DeltaEntry
}

// ApplyDelta patches old forward by one generation: replay the delta's
// removals and upserts onto the base's buckets, recompile the canonical
// flat image, run it through full LoadFlatTable validation, and prove
// the arena CRC equals the delta's ToCRC. A nil error therefore
// guarantees the result is byte-identical to the table the cloud built
// AND passed the same validation a full OTA image would. Apply runs
// twice per OTA round (the cloud's self-verify, then the device), and
// its patch step is O(base + delta): edits are grouped by bucket and
// each touched bucket is rebuilt in one pass. The returned table's
// lookup path allocates nothing, like any loaded flat table.
func ApplyDelta(old *FlatTable, d *trace.TableDelta) (*FlatTable, error) {
	if old == nil || d == nil {
		return nil, fmt.Errorf("memo: apply: nil input")
	}
	if got := old.ArenaCRC(); got != d.FromCRC {
		return nil, fmt.Errorf("%w: base arena CRC %08x, delta expects %08x", ErrDeltaMismatch, got, d.FromCRC)
	}

	// Group the edits by bucket, then rebuild each touched bucket in one
	// pass. Untouched buckets alias the base's entries: nothing below
	// writes them, and the result is reloaded from its compiled image.
	edits := make(map[deltaBucketKey]*bucketEdits)
	edit := func(et string, ek uint64) *bucketEdits {
		bk := deltaBucketKey{et, ek}
		if edits[bk] == nil {
			edits[bk] = &bucketEdits{removed: make(map[uint64]bool)}
		}
		return edits[bk]
	}
	for _, k := range d.Removed {
		e := edit(k.Type, k.EventKey)
		if e.removed[k.StateKey] {
			return nil, fmt.Errorf("%w: duplicate removal of %q/%#x/%#x", ErrDeltaMismatch, k.Type, k.EventKey, k.StateKey)
		}
		e.removed[k.StateKey] = true
	}
	for i := range d.Upserts {
		e := edit(d.Upserts[i].Key.Type, d.Upserts[i].Key.EventKey)
		e.upserts = append(e.upserts, &d.Upserts[i])
	}
	work := make(map[deltaBucketKey][]SnipEntry)
	var err error
	old.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
		bk := deltaBucketKey{et, ek}
		if e := edits[bk]; e != nil && err == nil {
			delete(edits, bk)
			entries, err = e.apply(bk, entries)
		}
		work[bk] = entries
	})
	for bk, e := range edits { // buckets the base does not hold
		if err == nil {
			work[bk], err = e.apply(bk, nil)
		}
	}
	if err != nil {
		return nil, err
	}

	// Recompile through the canonical builder and revalidate exactly as a
	// full OTA image would be. Wire/FromWire is the builder's native
	// input shape; ByKey doubles as the duplicate-state-key check
	// (FromWire would silently collapse duplicates, LoadFlatTable would
	// then reject the probe chains — fail early with a clearer error).
	buckets := make(map[string]map[uint64]*Bucket, len(work))
	for bk, entries := range work {
		if len(entries) == 0 {
			continue
		}
		byEvent := buckets[bk.et]
		if byEvent == nil {
			byEvent = make(map[uint64]*Bucket)
			buckets[bk.et] = byEvent
		}
		b := &Bucket{Order: make([]*SnipEntry, len(entries)), ByKey: make(map[uint64]*SnipEntry, len(entries))}
		for i := range entries {
			e := &entries[i]
			if _, dup := b.ByKey[e.StateKey]; dup {
				return nil, fmt.Errorf("%w: duplicate state key %#x in bucket %q/%#x", ErrDeltaMismatch, e.StateKey, bk.et, bk.ek)
			}
			b.Order[i] = e
			b.ByKey[e.StateKey] = e
		}
		byEvent[bk.ek] = b
	}
	img, err := FromWire(&Wire{Selection: selectionFromWire(d.Selection), Buckets: buckets}).FlatImage()
	if err != nil {
		return nil, fmt.Errorf("memo: apply: %w", err)
	}
	t, err := LoadFlatTable(img)
	if err != nil {
		return nil, fmt.Errorf("memo: apply: %w", err)
	}
	if got := t.ArenaCRC(); got != d.ToCRC {
		return nil, fmt.Errorf("%w: patched arena CRC %08x, delta promises %08x", ErrDeltaMismatch, got, d.ToCRC)
	}
	return t, nil
}

// apply rebuilds one bucket in a single pass over its base entries:
// removed keys are dropped, upserts of surviving keys replace them in
// place, and every other upsert is inserted at its carried target
// position. Inserts go in ascending position order, so each Pos means
// "scan position in the final bucket" regardless of how the upserts
// were listed; the order among equal positions is part of the image.
func (e *bucketEdits) apply(bk deltaBucketKey, base []SnipEntry) ([]SnipEntry, error) {
	out := make([]SnipEntry, 0, len(base)+len(e.upserts))
	index := make(map[uint64]int, len(base))
	for i := range base {
		if !e.removed[base[i].StateKey] {
			index[base[i].StateKey] = len(out)
			out = append(out, base[i])
		}
	}
	if dropped := len(base) - len(out); dropped != len(e.removed) {
		return nil, fmt.Errorf("%w: %d of %d removals in bucket %q/%#x name no entry", ErrDeltaMismatch, len(e.removed)-dropped, len(e.removed), bk.et, bk.ek)
	}
	var inserts []*trace.DeltaEntry
	for _, u := range e.upserts {
		if j, ok := index[u.Key.StateKey]; ok {
			out[j] = SnipEntry{StateKey: u.Key.StateKey, Outputs: u.Outputs, Instr: u.Instr}
		} else {
			inserts = append(inserts, u)
		}
	}
	sort.Slice(inserts, func(i, j int) bool { return inserts[i].Pos < inserts[j].Pos })
	for _, u := range inserts {
		at := int(u.Pos)
		if at > len(out) {
			return nil, fmt.Errorf("%w: upsert %q/%#x/%#x at position %d of %d", ErrDeltaMismatch, u.Key.Type, u.Key.EventKey, u.Key.StateKey, at, len(out))
		}
		out = append(out, SnipEntry{})
		copy(out[at+1:], out[at:])
		out[at] = SnipEntry{StateKey: u.Key.StateKey, Outputs: u.Outputs, Instr: u.Instr}
	}
	return out, nil
}

// ApplyDeltaChain applies consecutive deltas oldest-first, verifying
// version continuity between links on top of each link's CRC guards.
func ApplyDeltaChain(base *FlatTable, c *trace.DeltaChain) (*FlatTable, error) {
	if c == nil || len(c.Deltas) == 0 {
		return nil, fmt.Errorf("memo: apply: empty delta chain")
	}
	cur := base
	for i := range c.Deltas {
		d := &c.Deltas[i]
		if i > 0 && d.FromVersion != c.Deltas[i-1].ToVersion {
			return nil, fmt.Errorf("%w: chain gap: link %d goes %d->%d after %d", ErrDeltaMismatch, i, d.FromVersion, d.ToVersion, c.Deltas[i-1].ToVersion)
		}
		next, err := ApplyDelta(cur, d)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}
