package memo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"time"

	"snip/internal/trace"
	"snip/internal/units"
)

// This file implements the flat table image: a lookup table compiled
// into one contiguous []byte that is simultaneously the on-device serving
// structure, the OTA wire payload and the storage format. A lookup is two
// open-addressing probes — Combine(type hash, event key) to the bucket
// record, then Combine(bucket hash, state key) to the exact entry — all
// reads against the arena, with zero pointers chased and 0 allocs/op
// (gated by ci.sh). Like the map backend, the host structure answers in
// O(1) while the charged costs stay the paper's: the modeled hardware
// scans the bucket's state keys entry by entry, so probes/comparedBytes
// are computed from the hit's scan position (or the full bucket length on
// a miss), never from how the host found it. Loading is mmap-style:
// validate the header and CRC, then serve straight out of the buffer — no
// gob decode on the device path.
//
// Image layout (all integers little-endian):
//
//	header (64 B)
//	  [ 0: 8]  magic "SNIPFLT1"
//	  [ 8:12]  layout version (u32, = 1)
//	  [12:16]  reserved (u32, 0)
//	  [16:24]  entry count (u64)
//	  [24:32]  bucket count (u64)
//	  [32:40]  slot count (u64, power of two)
//	  [40:48]  arena length (u64)
//	  [48:52]  CRC32/IEEE of the arena (u32)
//	  [52:56]  CRC32/IEEE of header bytes [0:52) (u32)
//	  [56:64]  reserved
//	arena (everything after the header)
//	  directory: 9 × u64 section offsets, relative to arena start
//	  selection: the PFI Selection (types, fields, categories, sizes)
//	  types:     sorted names of the event types that own buckets
//	  buckets:   24 B records {type hash u64, event key u64, first u32, count u32}
//	  slots:     u32 per slot: bucket index + 1, 0 = empty (the open-
//	             addressing index over Combine(type hash, event key))
//	  keys:      u64 state key per entry, grouped by bucket in scan order
//	  meta:      16 B records {instr i64, output offset u32, output count u32}
//	  fields:    24 B output-field records {name ref u32, category u32,
//	             size i64, value u64}
//	  names:     deduplicated string pool for output-field names
//	  eslots:    entry slot count (u64, power of two), then u32 per slot:
//	             entry index + 1, 0 = empty (the open-addressing index
//	             over Combine(bucket hash, state key))
//
// Every builder (SnipTable.FlatImage, BuildFlat and the delta splice in
// delta.go) writes through imageWriter in canonical order (sorted types,
// sorted event keys, first-profiled order within a bucket), so the image
// bytes are a deterministic function of the table contents, and a flat
// table's Fingerprint equals its map-backed source's. XorOutputs alone
// edits image bytes directly: output values in a copy, then both CRCs.

// flatMagic identifies a flat table image.
const flatMagic = "SNIPFLT1"

// FlatLayoutVersion is the current image layout version.
const FlatLayoutVersion = 1

const (
	flatHeaderLen    = 64
	flatDirSections  = 9
	flatDirLen       = flatDirSections * 8
	flatBucketRecLen = 24
	flatMetaRecLen   = 16
	flatFieldRecLen  = 24
)

// Section indices in the arena directory.
const (
	secSelection = iota
	secTypes
	secBuckets
	secSlots
	secKeys
	secMeta
	secFields
	secNames
	secEntrySlots
)

// ErrFlatCorrupt is wrapped by every LoadFlatTable rejection: truncated
// or oversized images, bad magic/version, CRC mismatches, and structural
// inconsistencies between the index and the entry data.
var ErrFlatCorrupt = errors.New("memo: corrupt flat table image")

// flatWriter accumulates one arena section.
type flatWriter struct{ b []byte }

func (w *flatWriter) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *flatWriter) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *flatWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// imageWriter lays out one SNIPFLT1 image; every builder writes through
// it (SnipTable.FlatImage, BuildFlat and ApplyDelta). The caller writes
// in canonical order: newImageWriter takes the selection and the sorted
// bucket-owning types, then each bucket is one bucket call followed by
// its entries, each entry followed by its output fields. image compiles
// both slot indexes, the directory and the header.
type imageWriter struct {
	sel, types, buckets, keys, meta, fields flatWriter
	// names is the output-name pool in first-use order, nameRef its index.
	names   []string
	nameRef map[string]uint32
	// bucketHashes and entryHashes are the probe hashes of every bucket
	// and entry written so far; bh is the current bucket's.
	bucketHashes, entryHashes []uint64
	bh                        uint64
}

// newImageWriter starts an image with room for the given numbers of
// buckets, entries and output fields. The index stores type hashes, not
// names; a hash collision between two type names would alias their
// buckets, so it refuses to build one.
func newImageWriter(sel Selection, types []string, buckets, entries, fields int) (*imageWriter, error) {
	hashes := make([]uint64, len(types))
	for i, et := range types {
		hashes[i] = trace.HashString(et)
		for j := range i {
			if hashes[j] == hashes[i] {
				return nil, fmt.Errorf("memo: flat image: type hash collision between %q and %q", types[j], et)
			}
		}
	}
	w := &imageWriter{nameRef: make(map[string]uint32), bucketHashes: make([]uint64, 0, buckets),
		entryHashes: make([]uint64, 0, entries)}
	w.buckets.b = make([]byte, 0, flatBucketRecLen*buckets)
	w.keys.b = make([]byte, 0, 8*entries)
	w.meta.b = make([]byte, 0, flatMetaRecLen*entries)
	w.fields.b = make([]byte, 0, flatFieldRecLen*fields)

	selTypes := make([]string, 0, len(sel))
	for et := range sel {
		selTypes = append(selTypes, et)
	}
	sort.Strings(selTypes)
	w.sel.u32(uint32(len(selTypes)))
	for _, et := range selTypes {
		w.sel.str(et)
		w.sel.u32(uint32(len(sel[et])))
		for _, f := range sel[et] {
			w.sel.str(f.Name)
			w.sel.u32(uint32(f.Category))
			w.sel.u64(uint64(f.Size))
		}
	}
	w.types.u32(uint32(len(types)))
	for _, et := range types {
		w.types.str(et)
	}
	return w, nil
}

// bucket starts the record of a bucket holding count entries.
func (w *imageWriter) bucket(th, ek uint64, count int) {
	w.bh = trace.Combine(th, ek)
	w.bucketHashes = append(w.bucketHashes, w.bh)
	w.buckets.u64(th)
	w.buckets.u64(ek)
	w.buckets.u32(uint32(len(w.entryHashes)))
	w.buckets.u32(uint32(count))
}

// entry adds an entry of the current bucket with the given number of
// output fields.
func (w *imageWriter) entry(sk uint64, instr int64, outputs int) {
	w.entryHashes = append(w.entryHashes, trace.Combine(w.bh, sk))
	w.keys.u64(sk)
	w.meta.u64(uint64(instr))
	w.meta.u32(uint32(len(w.fields.b) / flatFieldRecLen))
	w.meta.u32(uint32(outputs))
}

// field adds an output field of the current entry; ref is its name's
// index in the pool (name).
func (w *imageWriter) field(ref uint32, cat trace.Category, size units.Size, value uint64) {
	w.fields.u32(ref)
	w.fields.u32(uint32(cat))
	w.fields.u64(uint64(size))
	w.fields.u64(value)
}

// name returns an output name's index in the pool, adding it if absent.
func (w *imageWriter) name(s string) uint32 {
	if id, ok := w.nameRef[s]; ok {
		return id
	}
	id := uint32(len(w.names))
	w.nameRef[s] = id
	w.names = append(w.names, s)
	return id
}

// slotIndex returns an open-addressing slot array over hashes: a power
// of two at least twice as long, so linear probe chains stay short and
// always end at an empty slot. Slot s holds 1 + the index of the hash
// that claimed it, in hash order. Slots cost 4 bytes each — noise next
// to the records they index.
func slotIndex(hashes []uint64) (count uint64, slots []byte) {
	count = 8
	for count < 2*uint64(len(hashes)) {
		count <<= 1
	}
	slots = make([]byte, 4*count)
	mask := count - 1
	for i, h := range hashes {
		slot := h & mask
		for binary.LittleEndian.Uint32(slots[4*slot:]) != 0 {
			slot = (slot + 1) & mask
		}
		binary.LittleEndian.PutUint32(slots[4*slot:], uint32(i)+1)
	}
	return count, slots
}

// image compiles the finished image. The bucket index resolves
// Combine(type hash, event key) to a bucket record; the entry index
// resolves Combine(bucket hash, state key) to the exact entry, so hits
// and misses are O(1) regardless of bucket size. The modeled scan cost
// is still charged from the bucket record at lookup time.
func (w *imageWriter) image() ([]byte, error) {
	entryCount, fieldCount := uint64(len(w.entryHashes)), uint64(len(w.fields.b)/flatFieldRecLen)
	if entryCount > math.MaxUint32 || fieldCount > math.MaxUint32 {
		return nil, fmt.Errorf("memo: flat image: table too large (%d entries, %d fields)", entryCount, fieldCount)
	}
	var names flatWriter
	names.u32(uint32(len(w.names)))
	for _, s := range w.names {
		names.str(s)
	}
	slotCount, slots := slotIndex(w.bucketHashes)
	eSlotCount, eslots := slotIndex(w.entryHashes)
	eslots = append(binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(eslots)), eSlotCount), eslots...)

	sections := [flatDirSections][]byte{
		secSelection:  w.sel.b,
		secTypes:      w.types.b,
		secBuckets:    w.buckets.b,
		secSlots:      slots,
		secKeys:       w.keys.b,
		secMeta:       w.meta.b,
		secFields:     w.fields.b,
		secNames:      names.b,
		secEntrySlots: eslots,
	}
	arenaLen := uint64(flatDirLen)
	for _, s := range sections {
		arenaLen += uint64(len(s))
	}
	img := make([]byte, flatHeaderLen, flatHeaderLen+arenaLen)
	off := uint64(flatDirLen)
	for _, s := range sections {
		img = binary.LittleEndian.AppendUint64(img, off)
		off += uint64(len(s))
	}
	for _, s := range sections {
		img = append(img, s...)
	}

	copy(img[0:8], flatMagic)
	binary.LittleEndian.PutUint32(img[8:], FlatLayoutVersion)
	binary.LittleEndian.PutUint64(img[16:], entryCount)
	binary.LittleEndian.PutUint64(img[24:], uint64(len(w.bucketHashes)))
	binary.LittleEndian.PutUint64(img[32:], slotCount)
	binary.LittleEndian.PutUint64(img[40:], arenaLen)
	binary.LittleEndian.PutUint32(img[48:], crc32.ChecksumIEEE(img[flatHeaderLen:]))
	binary.LittleEndian.PutUint32(img[52:], crc32.ChecksumIEEE(img[0:52]))
	return img, nil
}

// FlatImage compiles the table into its flat image. The walk is in
// canonical order, so two tables with identical rows produce identical
// bytes. Compiling does not require the table to be frozen (the bytes
// are a snapshot either way), but the intended flow is Freeze-then-
// compile: the image of a table that keeps mutating is just stale.
func (t *SnipTable) FlatImage() ([]byte, error) {
	types := make([]string, 0, len(t.buckets))
	for et := range t.buckets {
		types = append(types, et)
	}
	sort.Strings(types)
	w, err := newImageWriter(t.sel, types, t.Buckets(), t.Rows(), 0)
	if err != nil {
		return nil, err
	}
	for _, et := range types {
		byEvent := t.buckets[et]
		th := trace.HashString(et)
		eks := make([]uint64, 0, len(byEvent))
		for ek := range byEvent {
			eks = append(eks, ek)
		}
		sort.Slice(eks, func(i, j int) bool { return eks[i] < eks[j] })
		for _, ek := range eks {
			b := byEvent[ek]
			w.bucket(th, ek, len(b.Order))
			for _, e := range b.Order {
				w.entry(e.StateKey, e.Instr, len(e.Outputs))
				for _, f := range e.Outputs {
					w.field(w.name(f.Name), f.Category, f.Size, f.Value)
				}
			}
		}
	}
	return w.image()
}

// Flatten compiles a map table into its image and reloads it, so the
// result is exactly what a device would serve after an OTA fetch. The
// program builds its flat tables with BuildFlat; Flatten serves the map
// table's remaining callers: the oracle tests, the benchmark's staged
// build and the lookup sweep.
func Flatten(t *SnipTable) (*FlatTable, error) {
	img, err := t.FlatImage()
	if err != nil {
		return nil, err
	}
	return LoadFlatTable(img)
}

// flatType is the per-event-type lookup context: the precomputed type
// hash feeding the index, the selected fields and the key-chain step of
// each, and the state width Probe charges per probe.
type flatType struct {
	hash   uint64
	fields []SelectedField
	steps  []trace.Step
	width  units.Size
}

// FlatTable serves lookups straight out of a flat image. It is immutable
// by construction — there is no insert path — and safe for any number of
// concurrent readers. Everything a lookup or a hit reads (index slots,
// bucket records, state keys, entry meta and output records) is read
// from the arena in place; a hit returns an Entry view of its row. Load
// keeps only O(types + names) state beside the image: the selection,
// the per-type lookup context and the output-name pool.
type FlatTable struct {
	img   []byte
	arena []byte
	sel   Selection
	types map[string]flatType
	// names is the output-name pool; field records refer to it by index.
	names []string

	slotsOff   int
	slotMask   uint64
	bucketsOff int
	keysOff    int
	metaOff    int
	fieldsOff  int
	eSlotsOff  int
	eSlotMask  uint64

	rows      int
	bucketCnt int
	maxBucket int
	size      units.Size
	fp        uint64
	metrics   *TableMetrics
}

// stateKey returns entry i's state key.
func (t *FlatTable) stateKey(i uint32) uint64 {
	return binary.LittleEndian.Uint64(t.arena[t.keysOff+8*int(i):])
}

// meta returns entry i's instruction weight and the range of its output
// records.
func (t *FlatTable) meta(i uint32) (instr int64, first, count uint32) {
	rec := t.arena[t.metaOff+flatMetaRecLen*int(i):]
	return int64(binary.LittleEndian.Uint64(rec)), binary.LittleEndian.Uint32(rec[8:]), binary.LittleEndian.Uint32(rec[12:])
}

// outputs returns entry i's output records.
func (t *FlatTable) outputs(i uint32) []byte {
	_, first, count := t.meta(i)
	return t.arena[t.fieldsOff+flatFieldRecLen*int(first) : t.fieldsOff+flatFieldRecLen*(int(first)+int(count))]
}

// flatReader is a bounds-checked cursor over one arena section; any
// out-of-range read sets fail and returns zero values, so parsing a
// hostile image can never panic.
type flatReader struct {
	b    []byte
	off  int
	fail bool
}

func (r *flatReader) u32() uint32 {
	if r.off+4 > len(r.b) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *flatReader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *flatReader) str() string {
	n := int(r.u32())
	if r.fail || n < 0 || r.off+n > len(r.b) {
		r.fail = true
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFlatCorrupt, fmt.Sprintf(format, args...))
}

// LoadFlatTable validates an image and returns a table serving out of
// it. Validation is exhaustive — header magic/version, both CRCs,
// section bounds, index/entry-count consistency, probe reachability of
// every bucket — so a table that loads can be probed blindly; the caller
// must not mutate img afterwards. Cost is one linear pass, no gob.
func LoadFlatTable(img []byte) (*FlatTable, error) {
	if len(img) < flatHeaderLen {
		return nil, corrupt("image %d bytes, header needs %d", len(img), flatHeaderLen)
	}
	if string(img[:len(flatMagic)]) != flatMagic {
		return nil, corrupt("bad magic %q", img[:len(flatMagic)])
	}
	if got := binary.LittleEndian.Uint32(img[52:]); got != crc32.ChecksumIEEE(img[0:52]) {
		return nil, corrupt("header CRC mismatch")
	}
	if v := binary.LittleEndian.Uint32(img[8:]); v != FlatLayoutVersion {
		return nil, corrupt("layout version %d, want %d", v, FlatLayoutVersion)
	}
	entryCount := binary.LittleEndian.Uint64(img[16:])
	bucketCount := binary.LittleEndian.Uint64(img[24:])
	slotCount := binary.LittleEndian.Uint64(img[32:])
	arenaLen := binary.LittleEndian.Uint64(img[40:])
	if arenaLen != uint64(len(img)-flatHeaderLen) {
		return nil, corrupt("arena length %d, image holds %d", arenaLen, len(img)-flatHeaderLen)
	}
	arena := img[flatHeaderLen:]
	if got := binary.LittleEndian.Uint32(img[48:]); got != crc32.ChecksumIEEE(arena) {
		return nil, corrupt("arena CRC mismatch")
	}
	if slotCount == 0 || slotCount&(slotCount-1) != 0 {
		return nil, corrupt("slot count %d not a power of two", slotCount)
	}
	if arenaLen < flatDirLen {
		return nil, corrupt("arena %d bytes, directory needs %d", arenaLen, flatDirLen)
	}
	// The header counts are attacker-controlled: bound each by what the
	// arena could possibly hold BEFORE multiplying by a record size, so
	// the section-size comparisons below cannot wrap uint64. Without
	// this, slotCount 2^62 makes slotCount*4 wrap to 0, an empty slot
	// section passes the size check, and the occupancy loop panics.
	if bucketCount > arenaLen/flatBucketRecLen {
		return nil, corrupt("bucket count %d cannot fit a %d-byte arena", bucketCount, arenaLen)
	}
	if slotCount > arenaLen/4 {
		return nil, corrupt("slot count %d cannot fit a %d-byte arena", slotCount, arenaLen)
	}
	if entryCount > arenaLen/flatMetaRecLen {
		return nil, corrupt("entry count %d cannot fit a %d-byte arena", entryCount, arenaLen)
	}

	// Section bounds: monotone offsets inside the arena; section i ends
	// where section i+1 begins, the last one at the arena's end.
	var off [flatDirSections + 1]uint64
	for i := 0; i < flatDirSections; i++ {
		off[i] = binary.LittleEndian.Uint64(arena[8*i:])
	}
	off[flatDirSections] = arenaLen
	if off[0] != flatDirLen {
		return nil, corrupt("first section at %d, want %d", off[0], flatDirLen)
	}
	for i := 0; i < flatDirSections; i++ {
		if off[i] > off[i+1] || off[i+1] > arenaLen {
			return nil, corrupt("section %d spans [%d,%d) outside arena", i, off[i], off[i+1])
		}
	}
	section := func(i int) []byte { return arena[off[i]:off[i+1]] }

	if n := uint64(len(section(secBuckets))); n != bucketCount*flatBucketRecLen {
		return nil, corrupt("bucket section %d bytes, %d buckets need %d", n, bucketCount, bucketCount*flatBucketRecLen)
	}
	if n := uint64(len(section(secSlots))); n != slotCount*4 {
		return nil, corrupt("slot section %d bytes, %d slots need %d", n, slotCount, slotCount*4)
	}
	// Both slot arrays must stay at most half full: the builder sizes
	// them that way, and a guaranteed empty slot is what bounds every
	// linear-probe walk — a full array would let a miss spin forever.
	if 2*bucketCount > slotCount {
		return nil, corrupt("index overfull: %d buckets in %d slots", bucketCount, slotCount)
	}
	es := section(secEntrySlots)
	if len(es) < 8 {
		return nil, corrupt("entry slot section %d bytes, count header needs 8", len(es))
	}
	eSlotCount := binary.LittleEndian.Uint64(es)
	if eSlotCount == 0 || eSlotCount&(eSlotCount-1) != 0 {
		return nil, corrupt("entry slot count %d not a power of two", eSlotCount)
	}
	// Same wrap hazard as the header counts: bound before multiplying.
	if eSlotCount > (uint64(len(es))-8)/4 {
		return nil, corrupt("entry slot count %d cannot fit a %d-byte section", eSlotCount, len(es))
	}
	if n := uint64(len(es)); n != 8+eSlotCount*4 {
		return nil, corrupt("entry slot section %d bytes, %d slots need %d", n, eSlotCount, 8+eSlotCount*4)
	}
	if 2*entryCount > eSlotCount {
		return nil, corrupt("entry index overfull: %d entries in %d slots", entryCount, eSlotCount)
	}
	if n := uint64(len(section(secKeys))); n != entryCount*8 {
		return nil, corrupt("key section %d bytes, %d entries need %d", n, entryCount, entryCount*8)
	}
	if n := uint64(len(section(secMeta))); n != entryCount*flatMetaRecLen {
		return nil, corrupt("meta section %d bytes, %d entries need %d", n, entryCount, entryCount*flatMetaRecLen)
	}
	if n := len(section(secFields)); n%flatFieldRecLen != 0 {
		return nil, corrupt("field section %d bytes not a multiple of %d", n, flatFieldRecLen)
	}
	fieldCount := len(section(secFields)) / flatFieldRecLen

	// Names pool, and the hash of each name for the fingerprint walk.
	nr := flatReader{b: section(secNames)}
	nameCount := int(nr.u32())
	if nr.fail || nameCount < 0 || nameCount > len(nr.b) {
		return nil, corrupt("bad name count")
	}
	names := make([]string, nameCount)
	nameHashes := make([]uint64, nameCount)
	for i := range names {
		names[i] = nr.str()
		nameHashes[i] = trace.HashString(names[i])
	}
	if nr.fail || nr.off != len(nr.b) {
		return nil, corrupt("name section malformed")
	}

	// Output field records: each names a pooled name and a category.
	fieldSec := section(secFields)
	for i := 0; i < fieldCount; i++ {
		rec := fieldSec[flatFieldRecLen*i:]
		ref, cat := binary.LittleEndian.Uint32(rec), binary.LittleEndian.Uint32(rec[4:])
		if int(ref) >= nameCount || cat >= uint32(trace.NumCategories) {
			return nil, corrupt("field %d: name ref %d / category %d out of range", i, ref, cat)
		}
	}

	// Selection.
	sr := flatReader{b: section(secSelection)}
	nTypes := int(sr.u32())
	if sr.fail || nTypes < 0 || nTypes > len(sr.b) {
		return nil, corrupt("bad selection type count")
	}
	sel := make(Selection, nTypes)
	for i := 0; i < nTypes; i++ {
		et := sr.str()
		nf := int(sr.u32())
		if sr.fail || nf < 0 || nf > len(sr.b) {
			return nil, corrupt("selection %q: bad field count", et)
		}
		if _, dup := sel[et]; dup {
			return nil, corrupt("selection type %q repeated", et)
		}
		fs := make([]SelectedField, nf)
		for j := range fs {
			name := sr.str()
			cat := sr.u32()
			size := sr.u64()
			if cat >= uint32(trace.NumCategories) {
				return nil, corrupt("selection %q field %q: category %d out of range", et, name, cat)
			}
			fs[j] = SelectedField{Name: name, Category: trace.Category(cat), Size: units.Size(int64(size))}
		}
		sel[et] = fs
	}
	if sr.fail || sr.off != len(sr.b) {
		return nil, corrupt("selection section malformed")
	}
	sel.Canonicalize()

	// Bucket-owning types: sorted, unique names with unique hashes.
	tr := flatReader{b: section(secTypes)}
	nOwn := int(tr.u32())
	if tr.fail || nOwn < 0 || nOwn > len(tr.b) {
		return nil, corrupt("bad type count")
	}
	typeNames := make([]string, nOwn)
	typeHashes := make([]uint64, nOwn)
	types := make(map[string]flatType, nOwn)
	seenHash := make(map[uint64]bool, nOwn)
	for i := 0; i < nOwn; i++ {
		et := tr.str()
		if i > 0 && et <= typeNames[i-1] {
			return nil, corrupt("type list not strictly sorted at %q", et)
		}
		h := trace.HashString(et)
		if seenHash[h] {
			return nil, corrupt("type hash collision at %q", et)
		}
		seenHash[h] = true
		typeNames[i] = et
		typeHashes[i] = h
		types[et] = flatType{hash: h, fields: sel[et], steps: fieldSteps(sel[et]), width: sel.StateWidth(et)}
	}
	if tr.fail || tr.off != len(tr.b) {
		return nil, corrupt("type section malformed")
	}

	// Entries: every entry's outputs lie inside the field section.
	t := &FlatTable{
		img:        img,
		arena:      arena,
		sel:        sel,
		types:      types,
		names:      names,
		slotsOff:   int(off[secSlots]),
		slotMask:   slotCount - 1,
		bucketsOff: int(off[secBuckets]),
		keysOff:    int(off[secKeys]),
		metaOff:    int(off[secMeta]),
		fieldsOff:  int(off[secFields]),
		eSlotsOff:  int(off[secEntrySlots]) + 8,
		eSlotMask:  eSlotCount - 1,
		rows:       int(entryCount),
		bucketCnt:  int(bucketCount),
	}
	metaSec := section(secMeta)
	for i := 0; i < t.rows; i++ {
		outOff := binary.LittleEndian.Uint32(metaSec[flatMetaRecLen*i+8:])
		outCount := binary.LittleEndian.Uint32(metaSec[flatMetaRecLen*i+12:])
		if uint64(outOff)+uint64(outCount) > uint64(fieldCount) {
			return nil, corrupt("entry %d: outputs [%d,%d) beyond %d fields", i, outOff, uint64(outOff)+uint64(outCount), fieldCount)
		}
	}

	// Bucket walk: buckets must be grouped by type in type-list order,
	// strictly sorted by event key within a type, and tile the entry
	// array exactly. The same walk folds the canonical fingerprint and
	// the modeled size, entry order being canonical by construction; it
	// reads keys, meta and field records in place.
	fp := trace.HashString("snip-table-v1")
	ti := -1
	var prevEK uint64
	next := uint64(0)
	var size units.Size
	var width units.Size
	bucketSec := section(secBuckets)
	for bi := uint64(0); bi < bucketCount; bi++ {
		rec := bucketSec[flatBucketRecLen*bi:]
		th := binary.LittleEndian.Uint64(rec)
		ek := binary.LittleEndian.Uint64(rec[8:])
		first := binary.LittleEndian.Uint32(rec[16:])
		count := binary.LittleEndian.Uint32(rec[20:])
		if ti < 0 || th != typeHashes[ti] {
			ti++
			if ti >= nOwn || th != typeHashes[ti] {
				return nil, corrupt("bucket %d: type hash %#x out of type-list order", bi, th)
			}
			fp = trace.Combine(fp, typeHashes[ti])
			width = sel.Width(typeNames[ti])
		} else if ek <= prevEK {
			return nil, corrupt("bucket %d: event keys not strictly sorted", bi)
		}
		prevEK = ek
		if count == 0 || uint64(first) != next || next+uint64(count) > entryCount {
			return nil, corrupt("bucket %d: entries [%d,+%d) do not tile the entry array", bi, first, count)
		}
		next += uint64(count)
		if int(count) > t.maxBucket {
			t.maxBucket = int(count)
		}
		fp = trace.Combine(fp, ek)
		for i := first; i < first+count; i++ {
			instr, _, _ := t.meta(i)
			fp = trace.Combine(fp, t.stateKey(i))
			fp = trace.Combine(fp, uint64(instr))
			var rowOut units.Size
			out := t.outputs(i)
			for f := 0; f < len(out); f += flatFieldRecLen {
				fp = trace.Combine(fp, nameHashes[binary.LittleEndian.Uint32(out[f:])])
				fp = trace.Combine(fp, binary.LittleEndian.Uint64(out[f+16:]))
				rowOut += units.Size(int64(binary.LittleEndian.Uint64(out[f+8:])))
			}
			size += width + rowOut + 16 // key hash + bookkeeping, as SnipTable.Size
		}
	}
	if next != entryCount {
		return nil, corrupt("buckets cover %d of %d entries", next, entryCount)
	}
	if bucketCount > 0 && ti != nOwn-1 {
		return nil, corrupt("type list has %d types, buckets use %d", nOwn, ti+1)
	}
	if bucketCount == 0 && nOwn != 0 {
		return nil, corrupt("type list non-empty with zero buckets")
	}
	t.fp = fp
	t.size = size

	// Index validation: exactly bucketCount occupied bucket slots and
	// entryCount occupied entry slots, and every bucket and entry
	// reachable by its own probe chain — after this, a lookup can trust
	// both slot arrays blindly. Requiring each entry's probe to land on
	// its own index also rejects duplicate state keys within a bucket,
	// which the builder can never emit.
	slotSec := section(secSlots)
	occupied := uint64(0)
	for i := uint64(0); i < slotCount; i++ {
		v := binary.LittleEndian.Uint32(slotSec[4*i:])
		if v != 0 {
			if uint64(v) > bucketCount {
				return nil, corrupt("slot %d: bucket %d of %d", i, v, bucketCount)
			}
			occupied++
		}
	}
	if occupied != bucketCount {
		return nil, corrupt("index holds %d buckets, table has %d", occupied, bucketCount)
	}
	eSlotSec := es[8:]
	eOccupied := uint64(0)
	for i := uint64(0); i < eSlotCount; i++ {
		v := binary.LittleEndian.Uint32(eSlotSec[4*i:])
		if v != 0 {
			if uint64(v) > entryCount {
				return nil, corrupt("entry slot %d: entry %d of %d", i, v, entryCount)
			}
			eOccupied++
		}
	}
	if eOccupied != entryCount {
		return nil, corrupt("entry index holds %d entries, table has %d", eOccupied, entryCount)
	}
	for bi := uint64(0); bi < bucketCount; bi++ {
		rec := bucketSec[flatBucketRecLen*bi:]
		th := binary.LittleEndian.Uint64(rec)
		ek := binary.LittleEndian.Uint64(rec[8:])
		first := binary.LittleEndian.Uint32(rec[16:])
		count := binary.LittleEndian.Uint32(rec[20:])
		bh := trace.Combine(th, ek)
		if got, ok := t.probeIndex(bh, th, ek); !ok || got != bi {
			return nil, corrupt("bucket %d not reachable through the index", bi)
		}
		for i := uint32(0); i < count; i++ {
			sk := t.stateKey(first + i)
			if got, ok := t.probeEntry(trace.Combine(bh, sk), sk, first, count); !ok || got != first+i {
				return nil, corrupt("bucket %d entry %d not reachable through the entry index", bi, i)
			}
		}
	}
	return t, nil
}

// Image returns the backing image — the exact bytes to store or put on
// the wire. Callers must treat it as read-only.
func (t *FlatTable) Image() []byte { return t.img }

// Selection returns the table's field selection.
func (t *FlatTable) Selection() Selection { return t.sel }

// Rows returns the number of entries.
func (t *FlatTable) Rows() int { return t.rows }

// Buckets returns the number of first-level (event hash-code) buckets.
func (t *FlatTable) Buckets() int { return t.bucketCnt }

// MaxBucket returns the largest bucket's entry count.
func (t *FlatTable) MaxBucket() int { return t.maxBucket }

// Size returns the modeled deployed size, matching SnipTable.Size for
// the same rows (pinned by the equivalence tests).
func (t *FlatTable) Size() units.Size { return t.size }

// ImageBytes returns the physical image size — what an OTA transfer of
// this table actually puts on the wire.
func (t *FlatTable) ImageBytes() units.Size { return units.Size(len(t.img)) }

// Freeze is a no-op: a flat table is immutable from birth.
func (t *FlatTable) Freeze() {}

// Frozen always reports true.
func (t *FlatTable) Frozen() bool { return true }

// Fingerprint returns the canonical content digest, equal to the source
// SnipTable's Fingerprint (computed once at load).
func (t *FlatTable) Fingerprint() uint64 { return t.fp }

// SetMetrics attaches (or, with nil, detaches) observability counters.
// Attach before the table is shared.
func (t *FlatTable) SetMetrics(m *TableMetrics) { t.metrics = m }

// XorOutputs returns a copy of the table in which mask is XORed into
// every output value of each entry pick chooses, and the number of
// entries changed. pick is asked once per entry that has outputs, in
// image order (sorted types, sorted event keys, bucket order), so a
// seeded pick changes the same entries on every run. The copy's image
// differs from t's only in those values and its two CRCs, and it is
// reloaded through LoadFlatTable like any image off the wire. With
// nothing picked it returns t; t itself is never modified.
func (t *FlatTable) XorOutputs(mask uint64, pick func() bool) (*FlatTable, int) {
	img := bytes.Clone(t.img)
	fields := img[flatHeaderLen+t.fieldsOff:]
	changed := 0
	for i := uint32(0); i < uint32(t.rows); i++ {
		_, first, count := t.meta(i)
		if count == 0 || !pick() {
			continue
		}
		for f := uint64(first); f < uint64(first)+uint64(count); f++ {
			v := fields[flatFieldRecLen*f+16:]
			binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)^mask)
		}
		changed++
	}
	if changed == 0 {
		return t, 0
	}
	binary.LittleEndian.PutUint32(img[48:], crc32.ChecksumIEEE(img[flatHeaderLen:]))
	binary.LittleEndian.PutUint32(img[52:], crc32.ChecksumIEEE(img[0:52]))
	ft, err := LoadFlatTable(img)
	if err != nil {
		// LoadFlatTable checks no output value, and t's image passed it.
		panic("memo: XorOutputs: " + err.Error())
	}
	return ft, changed
}

// Lookup probes the flat table for a pending event whose selected fields
// resolve returns by name: keys, then Probe.
func (t *FlatTable) Lookup(eventType string, resolve Resolver) (entry Entry, probes int64, comparedBytes units.Size, ok bool) {
	ft := t.types[eventType]
	ek, sk := keys(ft.fields, ft.steps, resolve)
	return t.Probe(eventType, ek, sk)
}

// Probe looks up an event by its keys; same contract, costs and
// instrumentation as SnipTable.Probe, with the probe running against
// the arena bytes.
func (t *FlatTable) Probe(eventType string, eventKey, stateKey uint64) (entry Entry, probes int64, comparedBytes units.Size, ok bool) {
	if t.metrics == nil {
		return t.probe(eventType, eventKey, stateKey)
	}
	start := time.Now()
	entry, probes, comparedBytes, ok = t.probe(eventType, eventKey, stateKey)
	t.metrics.observe(ok, time.Since(start).Nanoseconds())
	return entry, probes, comparedBytes, ok
}
