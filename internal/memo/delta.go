package memo

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"snip/internal/trace"
)

// Flat-image delta diff/apply: the cloud diffs consecutive SNIPFLT1
// images after every rebuild into a trace.TableDelta (entry-level edits
// keyed by the open-addressing key hashes), and a device patches its
// current image forward by splicing the edits into it. Both walk the
// images' bucket records in canonical order, never a map table. DiffFlat
// merges the two bucket walks and finds each entry's old version
// through the old image's entry index. ApplyDelta copies the keys, meta
// and output records of the buckets the delta does not touch as byte
// ranges, rewrites only the touched buckets, and rebuilds both slot
// indexes, all through the image writer the builders use. The writer is
// canonical, so "splice then reload" reproduces the cloud's image
// byte-exactly — which the mandatory ToCRC check proves, after the full
// LoadFlatTable validation, before the table can reach a memo.Shared
// swap.
//
// Profiling is append-only (Dataset.Merge) and the builders keep
// first-profiled entries on conflicts, so under a stable selection a
// rebuild only appends entries to bucket tails and adds buckets: the
// delta is O(new entries). A selection change rewrites every key of the
// types it touches, removing whole buckets' keys and upserting them
// back. Such deltas are common and still pass the cloud's size check:
// in perfbench learn rounds one RaceKings delta removes 5813 keys and
// upserts 7121, encoding to 189 KB against a 710 KB image, and no round
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

// section returns arena section i of a loaded table.
func (t *FlatTable) section(i int) []byte {
	end := uint64(len(t.arena))
	if i+1 < flatDirSections {
		end = binary.LittleEndian.Uint64(t.arena[8*(i+1):])
	}
	return t.arena[binary.LittleEndian.Uint64(t.arena[8*i:]):end]
}

// bucketCursor walks a flat table's bucket records in stored, canonical
// order: owning types by name, event keys ascending within a type.
type bucketCursor struct {
	t            *FlatTable
	types        []string // the owning types, sorted
	hashes       []uint64 // their type hashes
	bi, ti       int      // current bucket and its type's index in types
	et           string
	th, ek       uint64
	first, count uint32
}

func (t *FlatTable) cursor() *bucketCursor {
	c := &bucketCursor{t: t, bi: -1, ti: -1}
	for et := range t.types {
		c.types = append(c.types, et)
	}
	sort.Strings(c.types)
	for _, et := range c.types {
		c.hashes = append(c.hashes, t.types[et].hash)
	}
	return c
}

// next moves to the next bucket and reports whether there is one.
// LoadFlatTable has checked that the buckets follow the type list.
func (c *bucketCursor) next() bool {
	if c.bi+1 >= c.t.bucketCnt {
		return false
	}
	c.bi++
	rec := c.t.arena[c.t.bucketsOff+flatBucketRecLen*c.bi:]
	c.th, c.ek = binary.LittleEndian.Uint64(rec), binary.LittleEndian.Uint64(rec[8:])
	c.first, c.count = binary.LittleEndian.Uint32(rec[16:]), binary.LittleEndian.Uint32(rec[20:])
	for c.ti < 0 || c.hashes[c.ti] != c.th {
		c.ti++
	}
	c.et = c.types[c.ti]
	return true
}

// compareBuckets orders two buckets canonically.
func compareBuckets(et1 string, ek1 uint64, et2 string, ek2 uint64) int {
	return cmp.Or(strings.Compare(et1, et2), cmp.Compare(ek1, ek2))
}

// selectionToDelta converts a Selection into the trace-level form a
// delta carries, sorted by event type (NameHash is derived, not
// shipped).
func selectionToDelta(sel Selection) []trace.SelectionType {
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

// selectionFromDelta rebuilds a canonical Selection from its delta form.
func selectionFromDelta(w []trace.SelectionType) Selection {
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

// sameEntry reports whether entry i of a and entry j of b carry the
// same instruction weight and output fields. It compares the records in
// place, each output's name through its table's pool.
func sameEntry(a *FlatTable, i uint32, b *FlatTable, j uint32) bool {
	ia, _, _ := a.meta(i)
	ib, _, _ := b.meta(j)
	fa, fb := a.outputs(i), b.outputs(j)
	if ia != ib || len(fa) != len(fb) {
		return false
	}
	for f := 0; f < len(fa); f += flatFieldRecLen {
		if !bytes.Equal(fa[f+4:f+flatFieldRecLen], fb[f+4:f+flatFieldRecLen]) ||
			a.names[binary.LittleEndian.Uint32(fa[f:])] != b.names[binary.LittleEndian.Uint32(fb[f:])] {
			return false
		}
	}
	return true
}

// DiffFlat computes the delta that patches old into new: removed keys,
// plus one upsert per added-or-changed entry carrying its scan position
// in the target bucket. It merges the two images' bucket walks, so
// upserts come in the new image's canonical order and removals in the
// old image's, and identical inputs produce an identical delta. Entries
// are compared record by record in the two images; only the upserts
// emitted decode their outputs, after the walk, into one array it
// sizes. game and
// the version pair are stamped into the delta for chain bookkeeping; the
// CRCs come from the two images.
func DiffFlat(game string, fromVersion, toVersion int, old, new *FlatTable) (*trace.TableDelta, error) {
	if old == nil || new == nil {
		return nil, fmt.Errorf("memo: diff: nil table")
	}
	d := &trace.TableDelta{
		Game:        game,
		FromVersion: fromVersion,
		ToVersion:   toVersion,
		FromCRC:     old.ArenaCRC(),
		ToCRC:       new.ArenaCRC(),
		Selection:   selectionToDelta(new.sel),
	}
	var src []uint32 // src[k]: the new table's entry behind upsert k
	fields := 0
	upsert := func(et string, ek uint64, pos int, i uint32) {
		instr, _, count := new.meta(i)
		src, fields = append(src, i), fields+int(count)
		d.Upserts = append(d.Upserts, trace.DeltaEntry{
			Key: trace.DeltaKey{Type: et, EventKey: ek, StateKey: new.stateKey(i)}, Pos: uint32(pos), Instr: instr,
		})
	}
	var kept []bool // kept[i]: the old bucket's entry i is in the new one
	o, n := old.cursor(), new.cursor()
	oOK, nOK := o.next(), n.next()
	for oOK || nOK {
		c := -1
		if !oOK {
			c = 1
		} else if nOK {
			c = compareBuckets(o.et, o.ek, n.et, n.ek)
		}
		kept = slices.Grow(kept[:0], int(o.count))[:o.count]
		clear(kept)
		if c >= 0 {
			bh := trace.Combine(n.th, n.ek)
			for i := range n.count {
				e := n.first + i
				if c == 0 {
					sk := new.stateKey(e)
					if j, ok := old.probeEntry(trace.Combine(bh, sk), sk, o.first, o.count); ok {
						kept[j-o.first] = true
						if sameEntry(old, j, new, e) {
							continue
						}
					}
				}
				upsert(n.et, n.ek, int(i), e)
			}
			nOK = n.next()
		}
		if c <= 0 {
			for i := range o.count {
				if !kept[i] {
					d.Removed = append(d.Removed, trace.DeltaKey{Type: o.et, EventKey: o.ek, StateKey: old.stateKey(o.first + i)})
				}
			}
			oOK = o.next()
		}
	}
	outputs := make([]trace.Field, 0, fields)
	for k, i := range src {
		from := len(outputs)
		outputs = Entry{t: new, i: i}.AppendOutputs(outputs)
		d.Upserts[k].Outputs = outputs[from:len(outputs):len(outputs)]
	}
	return d, nil
}

// ApplyDelta patches old forward by one generation: it splices the
// delta's removals and upserts into the base image, runs the result
// through full LoadFlatTable validation, and proves the arena CRC
// equals the delta's ToCRC. A nil error therefore guarantees the result
// is byte-identical to the table the cloud built AND passed the same
// validation a full OTA image would. It is O(base + delta): the buckets
// the delta does not touch are copied as byte ranges, and each touched
// bucket is rebuilt in one pass. The returned table's lookup path
// allocates nothing, like any loaded flat table.
func ApplyDelta(old *FlatTable, d *trace.TableDelta) (*FlatTable, error) {
	img, err := patch(old, d)
	if err != nil {
		return nil, err
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

// VerifyDelta is the cloud's self-verify: it proves that d patches old
// into exactly new, the table the cloud just built, before d may be
// served. It splices d into old's image as ApplyDelta does, with every
// ErrDeltaMismatch rejection, then requires the spliced bytes to equal
// new's image and d's ToCRC to be new's arena CRC. It does not reload
// the bytes: new passed LoadFlatTable when it was built, and bytes equal
// to it are a stronger proof than the CRC a device checks.
func VerifyDelta(old, new *FlatTable, d *trace.TableDelta) error {
	img, err := patch(old, d)
	if err != nil {
		return err
	}
	if !bytes.Equal(img, new.img) {
		return fmt.Errorf("%w: patched image differs from the built one", ErrDeltaMismatch)
	}
	if got := new.ArenaCRC(); got != d.ToCRC {
		return fmt.Errorf("%w: built arena CRC %08x, delta promises %08x", ErrDeltaMismatch, got, d.ToCRC)
	}
	return nil
}

// patch splices d into old's image: the base-CRC check, then the plan
// and the write, each with its ErrDeltaMismatch rejections.
func patch(old *FlatTable, d *trace.TableDelta) ([]byte, error) {
	if old == nil || d == nil {
		return nil, fmt.Errorf("memo: apply: nil input")
	}
	if got := old.ArenaCRC(); got != d.FromCRC {
		return nil, fmt.Errorf("%w: base arena CRC %08x, delta expects %08x", ErrDeltaMismatch, got, d.FromCRC)
	}
	s, err := planSplice(old, d)
	if err != nil {
		return nil, err
	}
	img, err := s.write(selectionFromDelta(d.Selection))
	if err != nil {
		return nil, fmt.Errorf("memo: apply: %w", err)
	}
	return img, nil
}

// splice is ApplyDelta's plan: the buckets the delta touches, what
// becomes of each base entry, and the base sections the write copies.
type splice struct {
	old     *FlatTable
	d       *trace.TableDelta
	touched []touchedBucket
	byBase  []int32 // 1 + the touched index of each base bucket, 0 if untouched
	fate    []int32 // per base entry: 0 kept, -1 removed, 1 + the upsert replacing it
	seq     []int32 // touched entries in scan order: i >= 0 base entry i, i < 0 upsert -i-1

	keys, meta, fields []byte
	ref                []uint32 // 1 + the new pool index of each base name, 0 until pooled
	pooled             int
	same               bool // every pooled base name kept its index
}

// touchedBucket is one bucket a delta edits.
type touchedBucket struct {
	et           string
	th, ek       uint64
	base         int    // the base's bucket index, -1 if the base has none
	first, count uint32 // the base's entries
	upserts      []int32
	lo, hi       int // the bucket's entries are seq[lo:hi]
}

// planSplice groups the delta's edits by bucket and lays out each
// touched bucket's entries. It rejects every edit that does not fit the
// base: a removal of an entry the base does not hold or removed twice,
// an upsert position beyond its bucket, and two inserts of one key.
func planSplice(old *FlatTable, d *trace.TableDelta) (*splice, error) {
	s := &splice{old: old, d: d, byBase: make([]int32, old.bucketCnt), fate: make([]int32, old.rows)}
	index := map[trace.DeltaKey]int{}
	last := -1
	bucketOf := func(k trace.DeltaKey) *touchedBucket {
		if last < 0 || s.touched[last].ek != k.EventKey || s.touched[last].et != k.Type {
			k.StateKey = 0
			i, ok := index[k]
			if !ok {
				i = len(s.touched)
				index[k] = i
				tb := touchedBucket{et: k.Type, th: trace.HashString(k.Type), ek: k.EventKey, base: -1}
				if _, known := old.types[k.Type]; known {
					if b, ok := old.probeIndex(trace.Combine(tb.th, tb.ek), tb.th, tb.ek); ok {
						rec := old.arena[old.bucketsOff+flatBucketRecLen*int(b):]
						tb.base, tb.first, tb.count = int(b), binary.LittleEndian.Uint32(rec[16:]), binary.LittleEndian.Uint32(rec[20:])
						s.byBase[b] = int32(i + 1)
					}
				}
				s.touched = append(s.touched, tb)
			}
			last = i
		}
		return &s.touched[last]
	}
	for _, k := range d.Removed {
		tb := bucketOf(k)
		j, ok := uint32(0), false
		if tb.base >= 0 {
			j, ok = old.probeEntry(trace.Combine(trace.Combine(tb.th, tb.ek), k.StateKey), k.StateKey, tb.first, tb.count)
		}
		if !ok || s.fate[j] != 0 {
			return nil, fmt.Errorf("%w: removal of %q/%#x/%#x names no entry or repeats", ErrDeltaMismatch, k.Type, k.EventKey, k.StateKey)
		}
		s.fate[j] = -1
	}
	for u := range d.Upserts {
		tb := bucketOf(d.Upserts[u].Key)
		tb.upserts = append(tb.upserts, int32(u))
	}

	// Per bucket: an upsert of a surviving key replaces it in place, every
	// other upsert is inserted at its carried target position. Inserts
	// go in ascending position order, so each Pos means "scan position
	// in the final bucket" regardless of how the upserts were listed. The
	// order among equal positions is part of the image: it is the order
	// sort.Slice leaves, inserted one at a time.
	var inserted pairIndex // (touched index, state key) of every insert
	var inserts, stack []int32
	for b := range s.touched {
		tb := &s.touched[b]
		bh := trace.Combine(tb.th, tb.ek)
		inserts = inserts[:0]
		for _, u := range tb.upserts {
			sk := d.Upserts[u].Key.StateKey
			if tb.base >= 0 {
				if j, ok := old.probeEntry(trace.Combine(bh, sk), sk, tb.first, tb.count); ok && s.fate[j] >= 0 {
					s.fate[j] = u + 1
					continue
				}
			}
			if _, added := inserted.id(uint32(b), sk); !added {
				return nil, fmt.Errorf("%w: duplicate state key %#x in bucket %q/%#x", ErrDeltaMismatch, sk, tb.et, tb.ek)
			}
			inserts = append(inserts, u)
		}
		pos := func(i int) uint32 { return d.Upserts[inserts[i]].Pos }
		// (Strictly ascending inserts are already in the one sorted order.)
		if !sort.SliceIsSorted(inserts, func(i, j int) bool { return pos(i) <= pos(j) }) {
			sort.Slice(inserts, func(i, j int) bool { return pos(i) < pos(j) })
		}
		// Merge the surviving base entries with the inserts. Entries before
		// an insert's position are final; the inserts waiting at or after
		// it come before the remaining base entries, the newest first.
		tb.lo = len(s.seq)
		next, end := tb.first, tb.first+tb.count
		emit := func() bool {
			if n := len(stack); n > 0 {
				s.seq, stack = append(s.seq, stack[n-1]), stack[:n-1]
				return true
			}
			for next < end && s.fate[next] < 0 {
				next++
			}
			if next == end {
				return false
			}
			s.seq, next = append(s.seq, int32(next)), next+1
			return true
		}
		for _, u := range inserts {
			for p := d.Upserts[u].Pos; uint64(len(s.seq)-tb.lo) < uint64(p); {
				if !emit() {
					k := d.Upserts[u].Key
					return nil, fmt.Errorf("%w: upsert %q/%#x/%#x at position %d of %d", ErrDeltaMismatch, k.Type, k.EventKey, k.StateKey, p, len(s.seq)-tb.lo)
				}
			}
			stack = append(stack, -u-1)
		}
		for emit() {
		}
		tb.hi = len(s.seq)
	}
	return s, nil
}

// write lays out the patched image under the target selection, in
// canonical order: the base buckets the delta leaves alone are copied,
// the touched ones written from the plan.
func (s *splice) write(sel Selection) ([]byte, error) {
	old := s.old
	var types []string
	buckets, entries, fields := 0, 0, 0
	for j, f := range s.fate { // kept base entries, and the upserts replacing some
		if _, _, n := old.meta(uint32(j)); f == 0 {
			fields += int(n)
		} else if f > 0 {
			fields += len(s.d.Upserts[f-1].Outputs)
		}
	}
	for _, i := range s.seq { // and the inserted upserts
		if i < 0 {
			fields += len(s.d.Upserts[-i-1].Outputs)
		}
	}
	for c := old.cursor(); c.next(); {
		n := int(c.count)
		if i := s.byBase[c.bi]; i != 0 {
			n = s.touched[i-1].hi - s.touched[i-1].lo
		}
		if n > 0 {
			if len(types) == 0 || types[len(types)-1] != c.et {
				types = append(types, c.et)
			}
			buckets, entries = buckets+1, entries+n
		}
	}
	var added []*touchedBucket // the buckets the base does not hold
	for i := range s.touched {
		if tb := &s.touched[i]; tb.base < 0 {
			added = append(added, tb)
			buckets, entries = buckets+1, entries+tb.hi-tb.lo
			if !slices.Contains(types, tb.et) {
				types = append(types, tb.et)
			}
		}
	}
	// The pool is sized for every base name and every upserted one: it
	// is shorter only if the delta removes a name's last entry.
	names := make(map[string]bool, len(old.names))
	for _, n := range old.names {
		names[n] = true
	}
	for i := range s.d.Upserts {
		for _, f := range s.d.Upserts[i].Outputs {
			names[f.Name] = true
		}
	}
	sort.Strings(types)
	slices.SortFunc(added, func(a, b *touchedBucket) int { return compareBuckets(a.et, a.ek, b.et, b.ek) })
	w, err := newImageWriter(sel, types, buckets, entries, fields, poolLen(names))
	if err != nil {
		return nil, err
	}

	s.keys, s.meta, s.fields = old.section(secKeys), old.section(secMeta), old.section(secFields)
	s.ref, s.same = make([]uint32, len(old.names)), true
	c := old.cursor()
	for ok := c.next(); ok || len(added) > 0; {
		if len(added) > 0 && (!ok || compareBuckets(added[0].et, added[0].ek, c.et, c.ek) < 0) {
			s.writeTouched(w, added[0])
			added = added[1:]
			continue
		}
		if i := s.byBase[c.bi]; i != 0 {
			s.writeTouched(w, &s.touched[i-1])
		} else {
			w.bucket(c.th, c.ek, int(c.count))
			s.copyEntries(w, c.first, c.count)
		}
		ok = c.next()
	}
	return w.image()
}

// writeTouched writes a touched bucket's entries, if it keeps any.
func (s *splice) writeTouched(w *imageWriter, tb *touchedBucket) {
	if tb.hi == tb.lo {
		return
	}
	w.bucket(tb.th, tb.ek, tb.hi-tb.lo)
	seq := s.seq[tb.lo:tb.hi]
	for k := 0; k < len(seq); k++ {
		i, u := seq[k], -seq[k]-1
		if i >= 0 && s.fate[i] == 0 { // a run of kept base entries
			n := int32(1)
			for k+1 < len(seq) && seq[k+1] == i+n && s.fate[i+n] == 0 {
				k, n = k+1, n+1
			}
			s.copyEntries(w, uint32(i), uint32(n))
			continue
		}
		if i >= 0 {
			u = s.fate[i] - 1
		}
		e := &s.d.Upserts[u]
		w.entry(e.Key.StateKey, e.Instr, len(e.Outputs))
		for _, f := range e.Outputs {
			w.field(w.name(f.Name), f.Category, f.Size, f.Value)
		}
	}
}

// copyEntries writes base entries [first, first+count) unchanged: their
// keys, meta and output records are copied as byte ranges, with meta
// output offsets rebased and output name refs moved to the new pool.
func (s *splice) copyEntries(w *imageWriter, first, count uint32) {
	keys := s.keys[8*first : 8*(first+count)]
	w.keys.b = append(w.keys.b, keys...)
	for i := 0; i < len(keys); i += 8 {
		w.entryHashes = append(w.entryHashes, trace.Combine(w.bh, binary.LittleEndian.Uint64(keys[i:])))
	}
	// The builders store each entry's output records right after the
	// previous entry's, so they copy as one run; any other layout is
	// copied run by run.
	meta := s.meta[flatMetaRecLen*first : flatMetaRecLen*(first+count)]
	from := len(w.fields.b)
	at := uint32(from / flatFieldRecLen)
	lo := binary.LittleEndian.Uint32(meta[8:])
	hi := lo
	for i := 0; i < len(meta); i += flatMetaRecLen {
		off, n := binary.LittleEndian.Uint32(meta[i+8:]), binary.LittleEndian.Uint32(meta[i+12:])
		if off != hi {
			w.fields.b = append(w.fields.b, s.fields[flatFieldRecLen*int(lo):flatFieldRecLen*int(hi)]...)
			lo = off
		}
		hi = off + n
		w.meta.b = append(w.meta.b, meta[i:i+8]...)
		w.meta.u32(at)
		w.meta.u32(n)
		at += n
	}
	w.fields.b = append(w.fields.b, s.fields[flatFieldRecLen*int(lo):flatFieldRecLen*int(hi)]...)
	if s.same && s.pooled == len(s.old.names) {
		return
	}
	for i := from; i < len(w.fields.b); i += flatFieldRecLen {
		r := binary.LittleEndian.Uint32(w.fields.b[i:])
		if s.ref[r] == 0 {
			s.ref[r] = w.name(s.old.names[r]) + 1
			s.pooled++
			s.same = s.same && s.ref[r] == r+1
		}
		binary.LittleEndian.PutUint32(w.fields.b[i:], s.ref[r]-1)
	}
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
