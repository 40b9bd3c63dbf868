package memo

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"snip/internal/trace"
)

// FuzzLoadFlatTable throws arbitrary bytes at the flat-image loader: it
// must reject garbage with an error — never panic, never return a table
// that then misbehaves. Inputs prefixed with "FIXC" get both CRCs
// recomputed before loading, so the fuzzer can mutate the arena
// structure freely and reach the validation layers behind the
// checksums (index/entry-count consistency, section bounds, bucket
// ordering) instead of bouncing off the CRC every time.
func FuzzLoadFlatTable(f *testing.F) {
	valid, err := SynthTable(64).FlatImage()
	if err != nil {
		f.Fatal(err)
	}
	empty, err := NewSnipTable(Selection{}).FlatImage()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(empty)
	f.Add(valid[:flatHeaderLen])            // header only, truncated arena
	f.Add(valid[:len(valid)/2])             // mid-arena truncation
	f.Add(append([]byte("FIXC"), valid...)) // CRC-repair mode seed
	// Corrupted-header seeds: version, counts, arena length.
	for _, off := range []int{8, 16, 24, 32, 40} {
		img := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(img[off:], 0xFFFF)
		f.Add(img)
		f.Add(append([]byte("FIXC"), img...))
	}
	// Index/entry-count mismatch seed: entry count off by one, CRCs
	// repaired so the structural check is what fires.
	mism := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(mism[16:], binary.LittleEndian.Uint64(mism[16:])+1)
	f.Add(append([]byte("FIXC"), mism...))
	// Overflow seeds: header counts whose product with the record size
	// wraps uint64 (2^62*4 == 0, 2^61*8 == 0, 2^62*24 == 0), CRC-repaired
	// so the pre-multiplication bounds are what must reject them.
	for _, off := range []int{16, 24, 32} { // entry, bucket, slot counts
		img := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(img[off:], 1<<62)
		f.Add(append([]byte("FIXC"), img...))
	}
	// The confirmed-panic shape: slot-section bytes cut from the arena so
	// the wrapped product 2^62*4 == 0 matches the empty section.
	f.Add(append([]byte("FIXC"), cutSlotsDeclareHugeCount(bytes.Clone(valid))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.HasPrefix(data, []byte("FIXC")) {
			data = bytes.Clone(data[4:])
			if len(data) >= flatHeaderLen {
				binary.LittleEndian.PutUint32(data[48:], crc32.ChecksumIEEE(data[flatHeaderLen:]))
				binary.LittleEndian.PutUint32(data[52:], crc32.ChecksumIEEE(data[0:52]))
			}
		}
		ft, err := LoadFlatTable(data)
		if err != nil {
			if ft != nil {
				t.Fatal("error with non-nil table")
			}
			return
		}
		// A table that loaded must be safely probe-able and internally
		// consistent.
		_ = ft.Fingerprint()
		if ft.Rows() < 0 || ft.Buckets() < 0 || ft.MaxBucket() > ft.Rows() {
			t.Fatalf("inconsistent shape: rows=%d buckets=%d max=%d", ft.Rows(), ft.Buckets(), ft.MaxBucket())
		}
		for _, et := range []string{"tap", "swipe", ""} {
			e, probes, cb, ok := ft.Lookup(et, func(string) (uint64, bool) { return 1, true })
			if ok && e == (Entry{}) {
				t.Fatal("hit returned no entry")
			}
			if probes < 0 || cb < 0 {
				t.Fatalf("negative costs %d %d", probes, cb)
			}
		}
		// Every entry's view must decode: a loaded image's entries read
		// their keys, meta and output records in place, so validation
		// must have bounded all of them.
		var outs []trace.Field
		for i := range uint32(ft.Rows()) {
			e := Entry{t: ft, i: i}
			_, _ = e.StateKey(), e.Instr()
			outs = e.AppendOutputs(outs[:0])
			for _, f := range outs {
				if int(f.Category) >= trace.NumCategories {
					t.Fatalf("entry %d decodes category %d", i, f.Category)
				}
			}
		}
		// Poisoning every entry of a table that loaded must give a
		// table that loads again (XorOutputs panics otherwise), and
		// doing it twice must give back the loaded image.
		all := func() bool { return true }
		bad, n := ft.XorOutputs(poisonTestMask, all)
		if back, m := bad.XorOutputs(poisonTestMask, all); m != n || !bytes.Equal(back.Image(), ft.Image()) {
			t.Fatalf("poisoning twice changed the image (%d then %d entries)", n, m)
		}
	})
}

// FuzzApplyDelta throws arbitrary delta-chain bytes at the device-side
// apply path: whatever the chain claims, apply must agree with the
// reference apply, and either error or produce an image that full
// LoadFlatTable validation accepts — a
// crafted chain must never make "apply reported success" and "the
// patched table is servable" come apart, because success is what
// authorizes the memo.Shared swap.
func FuzzApplyDelta(f *testing.F) {
	base, seeds := applyDeltaSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := trace.DecodeDeltaChain(bytes.NewReader(data), 1<<22)
		if err != nil {
			return
		}
		got, err := ApplyDeltaChain(base, c)
		// Whatever the chain, the apply must agree with the original
		// scan-and-shift apply kept in delta_ref_test.go.
		want, werr := refApplyDeltaChain(base, c)
		if diff := sameApplyOutcome(want, werr, got, err); diff != "" {
			t.Fatal(diff)
		}
		// ... and with the bucket-at-a-time apply the splice replaced.
		if len(c.Deltas) == 1 {
			bw, berr := bucketApplyDelta(base, &c.Deltas[0])
			if diff := sameApplyOutcome(bw, berr, got, err); diff != "" {
				t.Fatal("bucket-at-a-time apply: " + diff)
			}
		}
		if err != nil {
			return
		}
		// Success: the patched image must stand on its own through the
		// same validation a full OTA image faces.
		reloaded, err := LoadFlatTable(bytes.Clone(got.Image()))
		if err != nil {
			t.Fatalf("apply succeeded but LoadFlatTable rejects the result: %v", err)
		}
		if reloaded.Fingerprint() != got.Fingerprint() {
			t.Fatal("reloaded fingerprint differs")
		}
	})
}

// applyDeltaSeeds returns FuzzApplyDelta's base table and seed chains:
// a good delta, truncated and bit-flipped frames, and well-framed but
// semantically hostile chains — CRC lies, positions far out of range,
// removals of entries the base does not hold, duplicate upserts of one
// key.
func applyDeltaSeeds(tb testing.TB) (*FlatTable, [][]byte) {
	base := fuzzDeltaTable(tb, 0, 48)
	next := fuzzDeltaTable(tb, 0, 64)
	d, err := DiffFlat("g", 1, 2, base, next)
	if err != nil {
		tb.Fatal(err)
	}
	good := encodeChain(tb, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{*d}})
	flipped := bytes.Clone(good)
	flipped[len(flipped)-6] ^= 0x40
	seeds := [][]byte{good, good[:len(good)/2], flipped}
	warp := *d
	warp.ToCRC ^= 0xFFFF
	seeds = append(seeds, encodeChain(tb, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{warp}}))
	warp = *d
	warp.Upserts = append([]trace.DeltaEntry(nil), d.Upserts...)
	for i := range warp.Upserts {
		warp.Upserts[i].Pos = 1 << 30
	}
	seeds = append(seeds, encodeChain(tb, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{warp}}))
	warp = *d
	warp.Removed = []trace.DeltaKey{{Type: "ghost", EventKey: 1, StateKey: 2}}
	seeds = append(seeds, encodeChain(tb, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{warp}}))
	warp = *d
	warp.Upserts = append(append([]trace.DeltaEntry(nil), d.Upserts...), d.Upserts...)
	seeds = append(seeds, encodeChain(tb, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{warp, warp}}))
	return base, append(seeds, []byte{})
}

func fuzzDeltaTable(f testing.TB, lo, hi int) *FlatTable {
	f.Helper()
	ids := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ids = append(ids, i)
	}
	st := NewSnipTable(SynthSelection())
	for _, i := range ids {
		x, y, mode, level, combo := synthRow(64, i)
		st.Insert(&trace.Record{
			EventSeq: int64(i), EventType: "tap", Instr: 100, StateChanged: true,
			Inputs: []trace.Field{
				{Name: "event.tap.x", Category: trace.InEvent, Size: 4, Value: x},
				{Name: "event.tap.y", Category: trace.InEvent, Size: 4, Value: y},
				{Name: "state.mode", Category: trace.InHistory, Size: 1, Value: mode},
				{Name: "state.level", Category: trace.InHistory, Size: 2, Value: level},
				{Name: "state.combo", Category: trace.InHistory, Size: 2, Value: combo},
			},
			Outputs: []trace.Field{
				{Name: "state.out", Category: trace.OutHistory, Size: 4, Value: x + y + combo},
			},
		})
	}
	ft, err := Flatten(st)
	if err != nil {
		f.Fatal(err)
	}
	return ft
}

func encodeChain(f testing.TB, c *trace.DeltaChain) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeDeltaChain(&buf, c); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
