package memo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"snip/internal/obs"
	"snip/internal/trace"
)

// ---------------------------------------------------------------------------
// Round-trip: image bytes are deterministic, load reproduces the table.

func TestFlatImageDeterministic(t *testing.T) {
	a, err := SynthTable(500).FlatImage()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthTable(500).FlatImage()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two builds of the same table produced different images")
	}
}

func TestFlatRoundTrip(t *testing.T) {
	src := SynthTable(500)
	img, err := src.FlatImage()
	if err != nil {
		t.Fatal(err)
	}
	ft, err := LoadFlatTable(img)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Rows() != src.Rows() {
		t.Fatalf("rows %d != %d", ft.Rows(), src.Rows())
	}
	if ft.Buckets() != src.Buckets() {
		t.Fatalf("buckets %d != %d", ft.Buckets(), src.Buckets())
	}
	if ft.MaxBucket() != src.MaxBucket() {
		t.Fatalf("max bucket %d != %d", ft.MaxBucket(), src.MaxBucket())
	}
	if ft.Size() != src.Size() {
		t.Fatalf("size %v != %v", ft.Size(), src.Size())
	}
	if ft.Fingerprint() != src.Fingerprint() {
		t.Fatalf("fingerprint %#x != %#x", ft.Fingerprint(), src.Fingerprint())
	}
	if !ft.Frozen() {
		t.Fatal("flat table not frozen")
	}
	// And the image is the unit of storage: reloading serves again.
	ft2, err := LoadFlatTable(ft.Image())
	if err != nil {
		t.Fatal(err)
	}
	if ft2.Fingerprint() != src.Fingerprint() {
		t.Fatal("image reload changed the fingerprint")
	}
}

func TestFlatEmptyTable(t *testing.T) {
	img, err := NewSnipTable(Selection{}).FlatImage()
	if err != nil {
		t.Fatal(err)
	}
	ft, err := LoadFlatTable(img)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Rows() != 0 || ft.Buckets() != 0 {
		t.Fatalf("empty table reports %d rows %d buckets", ft.Rows(), ft.Buckets())
	}
	e, probes, cb, ok := ft.Lookup("tap", func(string) (uint64, bool) { return 0, false })
	if e != (Entry{}) || probes != 0 || cb != 0 || ok {
		t.Fatalf("lookup on empty: %v %d %d %v", e, probes, cb, ok)
	}
	if ft.Fingerprint() != NewSnipTable(Selection{}).Fingerprint() {
		t.Fatal("empty fingerprints differ")
	}
}

// TestEntryViewsMatchMapOracle: every entry view of a loaded image
// decodes to the map oracle's row (state key, instruction weight,
// outputs), in the oracle's canonical order, over seeded random profiles
// and the synthetic tables.
func TestEntryViewsMatchMapOracle(t *testing.T) {
	check := func(t *testing.T, what string, d *trace.Dataset, sel Selection) {
		t.Helper()
		mt := BuildSnip(d, sel)
		ft, err := BuildFlat(d, sel)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var want []*SnipEntry
		types := make([]string, 0, len(mt.buckets))
		for et := range mt.buckets {
			types = append(types, et)
		}
		slices.Sort(types)
		for _, et := range types {
			eks := make([]uint64, 0, len(mt.buckets[et]))
			for ek := range mt.buckets[et] {
				eks = append(eks, ek)
			}
			slices.Sort(eks)
			for _, ek := range eks {
				want = append(want, mt.buckets[et][ek].Order...)
			}
		}
		if ft.Rows() != len(want) {
			t.Fatalf("%s: %d views, oracle has %d rows", what, ft.Rows(), len(want))
		}
		var outs []trace.Field
		for i, w := range want {
			e := Entry{t: ft, i: uint32(i)}
			outs = e.AppendOutputs(outs[:0])
			if e.StateKey() != w.StateKey || e.Instr() != w.Instr || !slices.Equal(outs, w.Outputs) {
				t.Fatalf("%s: entry %d decodes to (%#x, %d, %v), oracle (%#x, %d, %v)",
					what, i, e.StateKey(), e.Instr(), outs, w.StateKey, w.Instr, w.Outputs)
			}
		}
	}
	for seed := uint64(0); seed < 50; seed++ {
		d, sel := randProfile(seed)
		check(t, fmt.Sprintf("randProfile(%d)", seed), d, sel)
	}
	for _, n := range []int{1, 7, 100, 2048, 4096} {
		check(t, fmt.Sprintf("SynthTable(%d)", n), synthDataset(n), SynthSelection())
	}
}

// ---------------------------------------------------------------------------
// Equivalence: every lookup returns byte-identical outputs and identical
// costs across backends — hits, in-bucket misses (the collision-chain
// scan), bucket misses, and unknown types.

// checkSame runs one probe against both backends and compares everything.
func checkSame(t *testing.T, mt *SnipTable, ft *FlatTable, eventType string, r Resolver, what string) {
	t.Helper()
	var ms, fs LookupStats
	me, mp, mc, mok := mt.Lookup(eventType, r)
	fe, fp, fc, fok := ft.Lookup(eventType, r)
	ms.Observe(mp, mc, mok)
	fs.Observe(fp, fc, fok)
	if mok != fok || mp != fp || mc != fc {
		t.Fatalf("%s: map (ok=%v probes=%d cmp=%d) != flat (ok=%v probes=%d cmp=%d)",
			what, mok, mp, mc, fok, fp, fc)
	}
	if ms != fs {
		t.Fatalf("%s: LookupStats diverge: %+v != %+v", what, ms, fs)
	}
	if mok {
		mo, fo := me.AppendOutputs(nil), fe.AppendOutputs(nil)
		if me.StateKey() != fe.StateKey() || me.Instr() != fe.Instr() || len(mo) != len(fo) {
			t.Fatalf("%s: entries diverge: %+v != %+v", what, me, fe)
		}
		for i := range mo {
			if mo[i] != fo[i] {
				t.Fatalf("%s: output %d diverges: %+v != %+v", what, i, mo[i], fo[i])
			}
		}
	}
}

func TestFlatLookupEquivalenceSynth(t *testing.T) {
	for _, n := range []int{1, 7, 100, 2048} {
		mt := SynthTable(n)
		ft, err := Flatten(mt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			checkSame(t, mt, ft, "tap", SynthHit(n, i), "hit")
			checkSame(t, mt, ft, "tap", SynthMiss(n, i), "in-bucket miss")
		}
		// Bucket miss: an event key no row was inserted under.
		checkSame(t, mt, ft, "tap", synthResolver(^uint64(0), ^uint64(0), 0, 0, 0), "bucket miss")
		// Unknown event type, and a type in no selection at all.
		checkSame(t, mt, ft, "swipe", SynthHit(n, 0), "unknown type")
		// Unresolvable fields hit the absent-sentinel path.
		checkSame(t, mt, ft, "tap", func(string) (uint64, bool) { return 0, false }, "absent fields")
	}
}

// TestFlatLookupEquivalenceCollisions forces long probe chains: a tiny
// slot array cannot be forced (slot count is derived), so instead we
// populate many buckets relative to slots (load factor 1/2 guarantees
// chains exist) and verify every single bucket still resolves to itself
// through the index.
func TestFlatLookupEquivalenceCollisions(t *testing.T) {
	const n = 4096 // ~1024 buckets against 2048 slots
	mt := SynthTable(n)
	ft, err := Flatten(mt)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Buckets() < 256 {
		t.Fatalf("want a bucket-heavy table, got %d buckets", ft.Buckets())
	}
	for i := 0; i < n; i += 7 {
		checkSame(t, mt, ft, "tap", SynthHit(n, i), "collision hit")
		checkSame(t, mt, ft, "tap", SynthMiss(n, i), "collision miss")
	}
}

// ---------------------------------------------------------------------------
// Loader rejection: every class of corruption must come back as
// ErrFlatCorrupt, never a panic or a silently-wrong table.

func validImage(t *testing.T) []byte {
	t.Helper()
	img, err := SynthTable(200).FlatImage()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// refreshCRCs recomputes both header CRCs after a deliberate mutation,
// so the test reaches the structural validation behind them.
func refreshCRCs(img []byte) {
	binary.LittleEndian.PutUint32(img[48:], crc32.ChecksumIEEE(img[flatHeaderLen:]))
	binary.LittleEndian.PutUint32(img[52:], crc32.ChecksumIEEE(img[0:52]))
}

// cutSlotsDeclareHugeCount removes the slot-section bytes from the
// arena (shifting the directory offsets of every later section and the
// header's arena length) and sets slotCount to 2^62, whose *4 product
// wraps uint64 to 0 and matches the empty section. Confirmed to panic
// loaders that multiply before bounding the count.
func cutSlotsDeclareHugeCount(img []byte) []byte {
	dir := func(i int) uint64 {
		return binary.LittleEndian.Uint64(img[flatHeaderLen+8*i:])
	}
	start, end := dir(secSlots), dir(secKeys)
	delta := end - start
	for i := secKeys; i < flatDirSections; i++ {
		binary.LittleEndian.PutUint64(img[flatHeaderLen+8*i:], dir(i)-delta)
	}
	img = append(img[:flatHeaderLen+int(start)], img[flatHeaderLen+int(end):]...)
	binary.LittleEndian.PutUint64(img[40:], binary.LittleEndian.Uint64(img[40:])-delta)
	binary.LittleEndian.PutUint64(img[32:], 1<<62)
	refreshCRCs(img)
	return img
}

func TestLoadFlatTableRejects(t *testing.T) {
	base := validImage(t)
	cases := []struct {
		name string
		mut  func(img []byte) []byte
	}{
		{"empty", func(img []byte) []byte { return nil }},
		{"short header", func(img []byte) []byte { return img[:32] }},
		{"bad magic", func(img []byte) []byte { img[0] ^= 0xFF; return img }},
		{"bad version", func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[8:], 99)
			refreshCRCs(img)
			return img
		}},
		{"truncated arena", func(img []byte) []byte { return img[:len(img)-8] }},
		{"trailing garbage", func(img []byte) []byte { return append(img, 0xAA) }},
		{"arena bitflip", func(img []byte) []byte { img[flatHeaderLen+40] ^= 0x01; return img }},
		{"header crc", func(img []byte) []byte { img[53] ^= 0x01; return img }},
		{"arena crc", func(img []byte) []byte { img[49] ^= 0x01; return img }},
		{"slot count not pow2", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[32:], 777)
			refreshCRCs(img)
			return img
		}},
		{"entry count mismatch", func(img []byte) []byte {
			n := binary.LittleEndian.Uint64(img[16:])
			binary.LittleEndian.PutUint64(img[16:], n-1)
			refreshCRCs(img)
			return img
		}},
		{"bucket count mismatch", func(img []byte) []byte {
			n := binary.LittleEndian.Uint64(img[24:])
			binary.LittleEndian.PutUint64(img[24:], n+1)
			refreshCRCs(img)
			return img
		}},
		{"index entry clobbered", func(img []byte) []byte {
			// Zero the first occupied slot: its bucket becomes
			// unreachable and the occupancy count drops.
			off := int(binary.LittleEndian.Uint64(img[flatHeaderLen+8*secSlots:])) + flatHeaderLen
			end := int(binary.LittleEndian.Uint64(img[flatHeaderLen+8*secKeys:])) + flatHeaderLen
			for ; off < end; off += 4 {
				if binary.LittleEndian.Uint32(img[off:]) != 0 {
					binary.LittleEndian.PutUint32(img[off:], 0)
					break
				}
			}
			refreshCRCs(img)
			return img
		}},
		{"slot count product wraps", func(img []byte) []byte {
			// 2^62 is a power of two and 2^62*4 wraps uint64 to 0; the
			// pre-multiplication bound must fire, not the size match.
			binary.LittleEndian.PutUint64(img[32:], 1<<62)
			refreshCRCs(img)
			return img
		}},
		{"slot count wraps onto empty section", func(img []byte) []byte {
			// The PoC shape: physically cut the slot-section bytes out
			// of the arena, then declare 2^62 slots. The wrapped product
			// 2^62*4 == 0 matches the now-empty section, so a loader
			// without the pre-multiplication bound sails through every
			// size check and panics indexing the empty slice in the
			// occupancy scan.
			return cutSlotsDeclareHugeCount(img)
		}},
		{"entry count product wraps", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[16:], 1<<61) // *8 == 2^64
			refreshCRCs(img)
			return img
		}},
		{"bucket count product wraps", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[24:], 1<<62) // *24 wraps to 0
			refreshCRCs(img)
			return img
		}},
		{"entry slot count product wraps", func(img []byte) []byte {
			off := int(binary.LittleEndian.Uint64(img[flatHeaderLen+8*secEntrySlots:])) + flatHeaderLen
			binary.LittleEndian.PutUint64(img[off:], 1<<62) // 8+2^62*4 wraps to 8
			refreshCRCs(img)
			return img
		}},
		{"bucket order swapped", func(img []byte) []byte {
			// Swapping two bucket records breaks the sorted-event-key
			// invariant (and the entry tiling).
			off := int(binary.LittleEndian.Uint64(img[flatHeaderLen+8*secBuckets:])) + flatHeaderLen
			var tmp [flatBucketRecLen]byte
			copy(tmp[:], img[off:])
			copy(img[off:], img[off+flatBucketRecLen:off+2*flatBucketRecLen])
			copy(img[off+flatBucketRecLen:], tmp[:])
			refreshCRCs(img)
			return img
		}},
	}
	for _, tc := range cases {
		img := tc.mut(bytes.Clone(base))
		if _, err := LoadFlatTable(img); !errors.Is(err, ErrFlatCorrupt) {
			t.Errorf("%s: got %v, want ErrFlatCorrupt", tc.name, err)
		}
	}
	// The pristine image still loads (the mutations never aliased it).
	if _, err := LoadFlatTable(base); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
}

// TestFlatSharedSwap pins the serving integration: a Shared can publish
// flat tables, roll them back, and the generations stay coherent.
func TestFlatSharedSwap(t *testing.T) {
	first, err := Flatten(SynthTable(64))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Flatten(SynthTable(128))
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShared(first)
	if got := sh.Load().Fingerprint(); got != first.Fingerprint() {
		t.Fatal("initial publication lost")
	}
	if gen := sh.Swap(second); gen != 2 {
		t.Fatalf("swap generation %d", gen)
	}
	if got := sh.Load().Fingerprint(); got != second.Fingerprint() {
		t.Fatal("swap not visible")
	}
	if gen, ok := sh.Rollback(); !ok || gen != 1 {
		t.Fatalf("rollback (%d, %v)", gen, ok)
	}
	if got := sh.Load().Fingerprint(); got != first.Fingerprint() {
		t.Fatal("rollback restored the wrong table")
	}
}

// TestFlatMetrics: attaching metrics must not change results, and the
// counters must tally.
func TestFlatMetrics(t *testing.T) {
	ft, err := Flatten(SynthTable(100))
	if err != nil {
		t.Fatal(err)
	}
	bare, bp, bc, bok := ft.Lookup("tap", SynthHit(100, 3))
	m := NewTableMetrics(obs.NewRegistry(), "snip")
	ft.SetMetrics(m)
	inst, ip, ic, iok := ft.Lookup("tap", SynthHit(100, 3))
	// Entry views compare by value: the same table and row.
	if bok != iok || bp != ip || bc != ic || bare != inst {
		t.Fatal("metrics changed lookup results")
	}
	if m.Lookups.Value() != 1 || m.Hits.Value() != 1 {
		t.Fatalf("counters: lookups=%d hits=%d", m.Lookups.Value(), m.Hits.Value())
	}
}

// poisonTestMask is the XorOutputs mask of the memo tests.
const poisonTestMask = 0xBAD5EED0DEADBEEF

// TestXorOutputs: XorOutputs flips the output values of exactly the
// entries pick chooses, leaves its input and every other byte of the
// table alone, and undoes itself under the same picks.
func TestXorOutputs(t *testing.T) {
	src, err := Flatten(SynthTable(200))
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(src.Image())
	everyThird := func() func() bool {
		i := 0
		return func() bool { i++; return i%3 == 0 }
	}
	bad, n := src.XorOutputs(poisonTestMask, everyThird())
	if !bytes.Equal(src.Image(), before) {
		t.Fatal("XorOutputs modified its input")
	}
	if len(bad.Image()) != len(before) || bad.Rows() != src.Rows() || bad.Size() != src.Size() {
		t.Fatal("XorOutputs changed the table's shape")
	}
	flipped := 0
	for i := range uint32(src.Rows()) {
		a, b := Entry{t: src, i: i}, Entry{t: bad, i: i}
		ao, bo := a.AppendOutputs(nil), b.AppendOutputs(nil)
		if a.StateKey() != b.StateKey() || a.Instr() != b.Instr() || len(ao) != len(bo) {
			t.Fatalf("entry %d: key, weight or output count changed", i)
		}
		hit := len(ao) > 0 && ao[0].Value != bo[0].Value
		for f := range ao {
			want := ao[f]
			if hit {
				want.Value ^= poisonTestMask
			}
			if bo[f] != want {
				t.Fatalf("entry %d output %d: %+v, want %+v", i, f, bo[f], want)
			}
		}
		if hit {
			flipped++
		}
	}
	if n == 0 || flipped != n {
		t.Fatalf("XorOutputs reported %d entries, flipped %d", n, flipped)
	}
	if back, m := bad.XorOutputs(poisonTestMask, everyThird()); m != n || !bytes.Equal(back.Image(), before) {
		t.Fatal("the same picks did not undo XorOutputs")
	}
	if same, m := src.XorOutputs(poisonTestMask, func() bool { return false }); same != src || m != 0 {
		t.Fatal("XorOutputs with nothing picked did not return its input")
	}
}
