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
			if ok && e == nil {
				t.Fatal("hit returned nil entry")
			}
			if probes < 0 || cb < 0 {
				t.Fatalf("negative costs %d %d", probes, cb)
			}
		}
		_ = ft.Export()
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
	base := fuzzDeltaTable(f, 0, 48)
	next := fuzzDeltaTable(f, 0, 64)
	d, err := DiffFlat("g", 1, 2, base, next)
	if err != nil {
		f.Fatal(err)
	}
	good := encodeChain(f, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{*d}})
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := bytes.Clone(good)
	flipped[len(flipped)-6] ^= 0x40
	f.Add(flipped)
	// Semantically hostile but well-framed seeds: CRC lies, positions far
	// out of range, removals of entries the base does not hold, duplicate
	// upserts of one key.
	warp := *d
	warp.ToCRC ^= 0xFFFF
	f.Add(encodeChain(f, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{warp}}))
	warp = *d
	warp.Upserts = append([]trace.DeltaEntry(nil), d.Upserts...)
	for i := range warp.Upserts {
		warp.Upserts[i].Pos = 1 << 30
	}
	f.Add(encodeChain(f, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{warp}}))
	warp = *d
	warp.Removed = []trace.DeltaKey{{Type: "ghost", EventKey: 1, StateKey: 2}}
	f.Add(encodeChain(f, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{warp}}))
	warp = *d
	warp.Upserts = append(append([]trace.DeltaEntry(nil), d.Upserts...), d.Upserts...)
	f.Add(encodeChain(f, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{warp, warp}}))
	f.Add([]byte{})

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

func fuzzDeltaTable(f *testing.F, lo, hi int) *FlatTable {
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

func encodeChain(f *testing.F, c *trace.DeltaChain) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeDeltaChain(&buf, c); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
