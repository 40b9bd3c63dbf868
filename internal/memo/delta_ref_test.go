package memo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"snip/internal/trace"
)

// refApplyDelta is the original ApplyDelta, kept verbatim (only
// renamed) as the oracle the bucket-at-a-time apply is checked against:
// removals located by a linear scan and shifted out one at a time,
// upserts matched by a linear scan of their bucket.
func refApplyDelta(old *FlatTable, d *trace.TableDelta) (*FlatTable, error) {
	if old == nil || d == nil {
		return nil, fmt.Errorf("memo: apply: nil input")
	}
	if got := old.ArenaCRC(); got != d.FromCRC {
		return nil, fmt.Errorf("%w: base arena CRC %08x, delta expects %08x", ErrDeltaMismatch, got, d.FromCRC)
	}

	// Materialize the base's buckets as mutable entry slices. Entries are
	// copied by value so the frozen base table is never aliased.
	work := make(map[deltaBucketKey][]SnipEntry)
	old.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
		work[deltaBucketKey{et, ek}] = append([]SnipEntry(nil), entries...)
	})

	for _, k := range d.Removed {
		bk := deltaBucketKey{k.Type, k.EventKey}
		entries, ok := work[bk]
		at := -1
		for i := range entries {
			if entries[i].StateKey == k.StateKey {
				at = i
				break
			}
		}
		if !ok || at < 0 {
			return nil, fmt.Errorf("%w: removal of unknown entry %q/%#x/%#x", ErrDeltaMismatch, k.Type, k.EventKey, k.StateKey)
		}
		if len(entries) == 1 {
			delete(work, bk)
		} else {
			work[bk] = append(entries[:at], entries[at+1:]...)
		}
	}

	// Upserts: replace in place when the key exists, otherwise insert at
	// the carried target position. Per-bucket inserts go in ascending
	// position order so each Pos means "scan position in the final
	// bucket" regardless of how the upserts were listed.
	inserts := make(map[deltaBucketKey][]*trace.DeltaEntry)
	for i := range d.Upserts {
		u := &d.Upserts[i]
		bk := deltaBucketKey{u.Key.Type, u.Key.EventKey}
		entries := work[bk]
		replaced := false
		for j := range entries {
			if entries[j].StateKey == u.Key.StateKey {
				entries[j] = SnipEntry{StateKey: u.Key.StateKey, Outputs: u.Outputs, Instr: u.Instr}
				replaced = true
				break
			}
		}
		if !replaced {
			inserts[bk] = append(inserts[bk], u)
		}
	}
	for bk, us := range inserts {
		sort.Slice(us, func(i, j int) bool { return us[i].Pos < us[j].Pos })
		entries := work[bk]
		for _, u := range us {
			at := int(u.Pos)
			if at > len(entries) {
				return nil, fmt.Errorf("%w: upsert %q/%#x/%#x at position %d of %d", ErrDeltaMismatch, u.Key.Type, u.Key.EventKey, u.Key.StateKey, at, len(entries))
			}
			entries = append(entries, SnipEntry{})
			copy(entries[at+1:], entries[at:])
			entries[at] = SnipEntry{StateKey: u.Key.StateKey, Outputs: u.Outputs, Instr: u.Instr}
		}
		work[bk] = entries
	}

	// Recompile through the canonical builder and revalidate exactly as a
	// full OTA image would be. Wire/FromWire is the builder's native
	// input shape; ByKey doubles as the duplicate-state-key check
	// (FromWire would silently collapse duplicates, LoadFlatTable would
	// then reject the probe chains — fail early with a clearer error).
	buckets := make(map[string]map[uint64]*Bucket, len(work))
	for bk, entries := range work {
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
	img, err := FromWire(&Wire{Selection: selectionFromDelta(d.Selection), Buckets: buckets}).FlatImage()
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

// Wire is the map-shaped form the two apply oracles assemble their
// result in: a selection and its buckets, each with its ByKey index.
type Wire struct {
	Selection Selection
	Buckets   map[string]map[uint64]*Bucket
}

// FromWire wraps a Wire's buckets in a map table, the input the oracles
// compile their image from.
func FromWire(w *Wire) *SnipTable {
	w.Selection.Canonicalize()
	t := &SnipTable{sel: w.Selection, buckets: w.Buckets}
	t.cacheTypes()
	return t
}

// walkFlat visits every bucket in stored (canonical) order with its
// owning type name, event key and entries, decoded from their views.
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
		entries := make([]SnipEntry, count)
		for i := range entries {
			e := Entry{t: t, i: first + uint32(i)}
			entries[i] = SnipEntry{StateKey: e.StateKey(), Outputs: e.AppendOutputs(nil), Instr: e.Instr()}
		}
		fn(byHash[th], ek, entries)
	}
}

// deltaEntryEqual is the entry comparison of the map-keyed diff.
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

// refDiffFlat is the map-keyed DiffFlat the merge walk replaced, kept
// verbatim (only renamed) as its oracle: the old image's entries in a
// map by key, the new image walked against it, and a seen map for the
// removals.
func refDiffFlat(game string, fromVersion, toVersion int, old, new *FlatTable) (*trace.TableDelta, error) {
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
		Selection:   selectionToDelta(new.sel),
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

// bucketApplyDelta is the bucket-at-a-time ApplyDelta the splice
// replaced, kept verbatim (only renamed) as its second oracle: it
// groups the edits by bucket in maps, rebuilds each touched bucket in
// one pass, and recompiles the whole table through FromWire.
func bucketApplyDelta(old *FlatTable, d *trace.TableDelta) (*FlatTable, error) {
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
	img, err := FromWire(&Wire{Selection: selectionFromDelta(d.Selection), Buckets: buckets}).FlatImage()
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

// refApplyDeltaChain is ApplyDeltaChain over refApplyDelta.
func refApplyDeltaChain(base *FlatTable, c *trace.DeltaChain) (*FlatTable, error) {
	if c == nil || len(c.Deltas) == 0 {
		return nil, fmt.Errorf("memo: apply: empty delta chain")
	}
	cur := base
	for i := range c.Deltas {
		d := &c.Deltas[i]
		if i > 0 && d.FromVersion != c.Deltas[i-1].ToVersion {
			return nil, fmt.Errorf("%w: chain gap", ErrDeltaMismatch)
		}
		next, err := refApplyDelta(cur, d)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// sameApplyOutcome reports how two apply results differ, or "" when
// they agree: both succeeded with byte-identical images, or both failed
// and agree on whether the failure is a delta mismatch.
func sameApplyOutcome(want *FlatTable, werr error, got *FlatTable, gerr error) string {
	switch {
	case (werr == nil) != (gerr == nil):
		return fmt.Sprintf("reference err = %v, apply err = %v", werr, gerr)
	case werr != nil:
		if errors.Is(werr, ErrDeltaMismatch) != errors.Is(gerr, ErrDeltaMismatch) {
			return fmt.Sprintf("reference err = %v, apply err = %v: disagree on ErrDeltaMismatch", werr, gerr)
		}
	case !bytes.Equal(want.Image(), got.Image()):
		return "images differ"
	}
	return ""
}

// refRow is one generated profile row: type et, bucket field x, state
// fields a/b/c, and an output salt modeling a revised entry.
type refRow struct {
	et      string
	x       uint64
	a, b, c uint64
	salt    uint64
}

// refSelection selects event.<et>.x plus state.a and either state.b or,
// when alt is set for the type, state.c: the alternative keeps every
// bucket but rewrites every state key of that type.
func refSelection(types []string, alt map[string]bool) Selection {
	sel := make(Selection, len(types))
	for _, et := range types {
		last := "state.b"
		if alt[et] {
			last = "state.c"
		}
		sel[et] = []SelectedField{
			{Name: "event." + et + ".x", Category: trace.InEvent, Size: 4},
			{Name: "state.a", Category: trace.InHistory, Size: 2},
			{Name: last, Category: trace.InHistory, Size: 2},
		}
	}
	sel.Canonicalize()
	return sel
}

func refRowsTable(t testing.TB, sel Selection, rows []refRow) *FlatTable {
	t.Helper()
	st := NewSnipTable(sel)
	for i, r := range rows {
		outs := []trace.Field{{Name: "state.out", Category: trace.OutHistory, Size: 4, Value: r.x + r.a + r.b + r.c + r.salt}}
		if r.a%2 == 0 {
			outs = append(outs, trace.Field{Name: "frame." + r.et, Category: trace.OutTemp, Size: 8, Value: r.b ^ r.salt})
		}
		st.Insert(&trace.Record{
			EventSeq: int64(i), EventType: r.et, Instr: int64(100 + r.c), StateChanged: true,
			Inputs: []trace.Field{
				{Name: "event." + r.et + ".x", Category: trace.InEvent, Size: 4, Value: r.x},
				{Name: "state.a", Category: trace.InHistory, Size: 2, Value: r.a},
				{Name: "state.b", Category: trace.InHistory, Size: 2, Value: r.b},
				{Name: "state.c", Category: trace.InHistory, Size: 2, Value: r.c},
			},
			Outputs: outs,
		})
	}
	ft, err := Flatten(st)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// refRandRows generates n rows of type et over nb buckets, with bucket
// 0 taking about half of them so one bucket is large. Field a numbers
// the rows from *next, so no two rows share a key under either
// selection: a profile is append-only, so a real rebuild never lets a
// later duplicate displace the first-profiled row.
func refRandRows(rnd *rand.Rand, next *uint64, et string, n, nb int) []refRow {
	rows := make([]refRow, n)
	for i := range rows {
		x := uint64(0)
		if rnd.Intn(2) == 0 {
			x = uint64(rnd.Intn(nb))
		}
		*next++
		rows[i] = refRow{et: et, x: x, a: *next, b: uint64(rnd.Intn(8)), c: uint64(rnd.Intn(8))}
	}
	return rows
}

// retarget points d.ToCRC at whatever image the reference apply builds,
// so a hand-edited delta that the reference accepts up to the final CRC
// proof is compared on its patched bytes rather than on that proof. A
// delta the reference rejects earlier keeps the CRC of the unedited
// target: an apply that let the edit slip through would then succeed
// where the reference fails.
func retarget(base *FlatTable, d *trace.TableDelta) {
	_, err := refApplyDelta(base, d)
	if err == nil {
		return
	}
	msg := err.Error()
	if i := strings.Index(msg, "patched arena CRC "); i >= 0 {
		var crc uint32
		if _, serr := fmt.Sscanf(msg[i:], "patched arena CRC %08x", &crc); serr == nil {
			d.ToCRC = crc
		}
	}
}

// cloneDelta deep-copies the parts of a delta the mutations edit.
func cloneDelta(d *trace.TableDelta) *trace.TableDelta {
	c := *d
	c.Removed = append([]trace.DeltaKey(nil), d.Removed...)
	c.Upserts = append([]trace.DeltaEntry(nil), d.Upserts...)
	return &c
}

// insertsByBucket groups the upserts whose keys the base does not hold
// (the ones apply inserts by position), in delta order.
func insertsByBucket(base *FlatTable, d *trace.TableDelta) map[deltaBucketKey][]int {
	have := make(map[trace.DeltaKey]bool, base.Rows())
	base.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
		for i := range entries {
			have[trace.DeltaKey{Type: et, EventKey: ek, StateKey: entries[i].StateKey}] = true
		}
	})
	out := make(map[deltaBucketKey][]int)
	for i, u := range d.Upserts {
		if !have[u.Key] {
			bk := deltaBucketKey{u.Key.Type, u.Key.EventKey}
			out[bk] = append(out[bk], i)
		}
	}
	return out
}

// The hostile edits applied on top of a DiffFlat delta. Each names a
// shape the bucket-at-a-time apply must treat exactly as the reference.
var refMutations = []string{"none", "tied positions", "duplicate removal", "unknown removal", "removed and upserted", "duplicate upsert", "position out of range", "dropped removal"}

func mutateDelta(rnd *rand.Rand, base *FlatTable, d *trace.TableDelta, shape string) {
	switch shape {
	case "tied positions":
		// The inserts of the bucket with the most inserts land on a few
		// shared positions, listed out of order: the sort's order among
		// equal positions decides the bytes.
		var most []int
		for _, idx := range insertsByBucket(base, d) {
			if len(idx) > len(most) || len(idx) == len(most) && len(idx) > 0 && idx[0] < most[0] {
				most = idx
			}
		}
		step := uint32(1 + rnd.Intn(4))
		for _, i := range most {
			d.Upserts[i].Pos -= d.Upserts[i].Pos % step
		}
		rnd.Shuffle(len(d.Upserts), func(i, j int) { d.Upserts[i], d.Upserts[j] = d.Upserts[j], d.Upserts[i] })
	case "duplicate removal":
		if len(d.Removed) > 0 {
			d.Removed = append(d.Removed, d.Removed[rnd.Intn(len(d.Removed))])
		}
	case "unknown removal":
		k := trace.DeltaKey{Type: "tap", EventKey: rnd.Uint64(), StateKey: rnd.Uint64()}
		if len(d.Removed) > 0 && rnd.Intn(2) == 0 {
			k = d.Removed[rnd.Intn(len(d.Removed))]
			k.StateKey ^= 1 << 63
		}
		d.Removed = append(d.Removed, k)
	case "removed and upserted":
		// Remove a base entry the delta keeps or replaces, and upsert it
		// back at a random in-range position of its bucket.
		var kept []trace.DeltaKey
		removed := make(map[trace.DeltaKey]bool, len(d.Removed))
		for _, k := range d.Removed {
			removed[k] = true
		}
		base.walkFlat(func(et string, ek uint64, entries []SnipEntry) {
			for i := range entries {
				if k := (trace.DeltaKey{Type: et, EventKey: ek, StateKey: entries[i].StateKey}); !removed[k] {
					kept = append(kept, k)
				}
			}
		})
		if len(kept) == 0 {
			return
		}
		k := kept[rnd.Intn(len(kept))]
		d.Removed = append(d.Removed, k)
		d.Upserts = append(d.Upserts, trace.DeltaEntry{Key: k, Pos: uint32(rnd.Intn(3)), Instr: 7, Outputs: []trace.Field{{Name: "state.out", Category: trace.OutHistory, Size: 4, Value: 1}}})
	case "duplicate upsert":
		if len(d.Upserts) > 0 {
			u := d.Upserts[rnd.Intn(len(d.Upserts))]
			u.Instr++
			d.Upserts = append(d.Upserts, u)
		}
	case "position out of range":
		if len(d.Upserts) > 0 {
			d.Upserts[rnd.Intn(len(d.Upserts))].Pos += uint32(1 + rnd.Intn(1<<20))
		}
	case "dropped removal":
		if len(d.Removed) > 0 {
			i := rnd.Intn(len(d.Removed))
			d.Removed = append(d.Removed[:i], d.Removed[i+1:]...)
		}
	}
}

// ApplyDelta must accept and reject exactly the deltas the original
// scan-and-shift apply and the bucket-at-a-time apply did, and build byte-identical images from the
// ones it accepts: appends, in-place output changes, whole-type
// rewrites under a changed selection (buckets emptied then refilled),
// new types, and hostile edits — tied insert positions, duplicate and
// unknown removals, a key both removed and upserted, duplicate upserts,
// positions out of range.
func TestApplyDeltaMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	const cases = 600
	ok := make(map[string]int)
	failed := make(map[string]int)
	for n := 0; n < cases; n++ {
		baseTypes := []string{"tap"}
		if rnd.Intn(2) == 0 {
			baseTypes = append(baseTypes, "vsync")
		}
		var baseRows []refRow
		var rowID uint64
		for _, et := range baseTypes {
			baseRows = append(baseRows, refRandRows(rnd, &rowID, et, rnd.Intn(120), 1+rnd.Intn(6))...)
		}
		base := refRowsTable(t, refSelection(baseTypes, nil), baseRows)

		// Target: drop some rows (or every row of one bucket), revise
		// some outputs, append rows, maybe add a type, maybe change the
		// selection of one type.
		nextTypes := baseTypes
		if rnd.Intn(4) == 0 {
			nextTypes = append(append([]string(nil), baseTypes...), "swipe")
		}
		emptied := uint64(rnd.Intn(6))
		dropAll := rnd.Intn(4) == 0
		var nextRows []refRow
		for _, r := range baseRows {
			if dropAll && r.x == emptied || rnd.Intn(10) == 0 {
				continue
			}
			if rnd.Intn(8) == 0 {
				r.salt = uint64(1 + rnd.Intn(5))
			}
			nextRows = append(nextRows, r)
		}
		for _, et := range nextTypes {
			nextRows = append(nextRows, refRandRows(rnd, &rowID, et, rnd.Intn(40), 1+rnd.Intn(6))...)
		}
		alt := map[string]bool{}
		if rnd.Intn(4) == 0 {
			alt[baseTypes[rnd.Intn(len(baseTypes))]] = true
		}
		next := refRowsTable(t, refSelection(nextTypes, alt), nextRows)

		d, err := DiffFlat("g", 1, 2, base, next)
		if err != nil {
			t.Fatal(err)
		}
		if ref, _ := refDiffFlat("g", 1, 2, base, next); !reflect.DeepEqual(d, ref) {
			t.Fatalf("case %d: DiffFlat differs from the map-keyed diff", n)
		}
		shape := refMutations[rnd.Intn(len(refMutations))]
		d = cloneDelta(d)
		if shape != "none" {
			mutateDelta(rnd, base, d, shape)
			retarget(base, d)
		}

		want, werr := refApplyDelta(base, d)
		got, gerr := ApplyDelta(base, d)
		if diff := sameApplyOutcome(want, werr, got, gerr); diff != "" {
			t.Fatalf("case %d (%s): %s", n, shape, diff)
		}
		if bw, berr := bucketApplyDelta(base, d); sameApplyOutcome(bw, berr, got, gerr) != "" {
			t.Fatalf("case %d (%s): %s against the bucket-at-a-time apply", n, shape, sameApplyOutcome(bw, berr, got, gerr))
		}
		if shape == "none" && werr != nil {
			t.Fatalf("case %d: unedited delta rejected: %v", n, werr)
		}
		if werr == nil {
			ok[shape]++
		} else {
			failed[shape]++
		}
	}
	// Every shape must have been exercised, on the side it is built for.
	for _, shape := range []string{"none", "tied positions", "removed and upserted", "duplicate upsert", "dropped removal"} {
		if ok[shape] == 0 {
			t.Errorf("no accepted %q case (accepted %v)", shape, ok)
		}
	}
	for _, shape := range []string{"duplicate removal", "unknown removal", "duplicate upsert", "position out of range"} {
		if failed[shape] == 0 {
			t.Errorf("no rejected %q case (rejected %v)", shape, failed)
		}
	}
	t.Logf("accepted %v; rejected %v", ok, failed)
}
