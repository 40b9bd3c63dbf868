package memo

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"snip/internal/trace"
)

// deltaRows builds a table under SynthSelection holding exactly the
// given synthetic row ids, inserted in slice order (= bucket scan
// order). outSalt perturbs a row's output values, modeling a changed
// entry between generations; salt applies to the ids in salted.
func deltaRows(t testing.TB, n int, ids []int, salted map[int]uint64) *FlatTable {
	t.Helper()
	return deltaRowsUnder(t, SynthSelection(), n, ids, salted)
}

// deltaRowsUnder is deltaRows under the given selection, which must
// select SynthSelection's "tap" fields.
func deltaRowsUnder(t testing.TB, sel Selection, n int, ids []int, salted map[int]uint64) *FlatTable {
	t.Helper()
	st := NewSnipTable(sel)
	for _, i := range ids {
		x, y, mode, level, combo := synthRow(n, i)
		salt := salted[i]
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
				{Name: "state.out", Category: trace.OutHistory, Size: 4, Value: x + y + combo + salt},
				{Name: "frame.tile", Category: trace.OutTemp, Size: 8, Value: x ^ y},
			},
		})
	}
	ft, err := Flatten(st)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func seqIDs(lo, hi int) []int {
	ids := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ids = append(ids, i)
	}
	return ids
}

// The append-and-change shape of a real consecutive rebuild: new
// sessions appended 20 entries and revised one entry's outputs. The
// delta must carry exactly those edits and patch the base into the
// byte-identical target image.
func TestDiffApplyRoundTrip(t *testing.T) {
	const n = 256
	base := deltaRows(t, n, seqIDs(0, 100), nil)
	next := deltaRows(t, n, seqIDs(0, 120), map[int]uint64{5: 99})

	d, err := DiffFlat("g", 1, 2, base, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) != 0 {
		t.Fatalf("removed %d entries, want 0", len(d.Removed))
	}
	if len(d.Upserts) != 21 {
		t.Fatalf("%d upserts, want 21 (20 added + 1 changed)", len(d.Upserts))
	}
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Image(), next.Image()) {
		t.Fatal("patched image differs from the cloud-built target")
	}
	if got.Fingerprint() != next.Fingerprint() {
		t.Fatal("fingerprint mismatch after apply")
	}

	var frame bytes.Buffer
	if err := trace.EncodeDeltaChain(&frame, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{*d}}); err != nil {
		t.Fatal(err)
	}
	if frame.Len() >= len(next.Image()) {
		t.Fatalf("delta %d bytes not smaller than full image %d bytes", frame.Len(), len(next.Image()))
	}
}

func TestDiffApplyRemoval(t *testing.T) {
	const n = 256
	base := deltaRows(t, n, seqIDs(0, 100), nil)
	var kept []int
	for i := 0; i < 100; i++ {
		if i != 3 && i != 57 {
			kept = append(kept, i)
		}
	}
	next := deltaRows(t, n, kept, nil)

	d, err := DiffFlat("g", 4, 5, base, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) != 2 {
		t.Fatalf("removed %d entries, want 2", len(d.Removed))
	}
	if len(d.Upserts) != 0 {
		t.Fatalf("%d upserts, want 0", len(d.Upserts))
	}
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Image(), next.Image()) {
		t.Fatal("patched image differs after removals")
	}
}

// A selection change rewrites every key, so the diff degenerates to
// remove-everything-add-everything — still correct, just table-sized
// (the cloud's size preference serves the full image instead).
func TestDiffApplySelectionChange(t *testing.T) {
	const n = 256
	base := deltaRows(t, n, seqIDs(0, 50), nil)

	sel := Selection{"tap": {
		{Name: "event.tap.x", Category: trace.InEvent, Size: 4},
		{Name: "event.tap.y", Category: trace.InEvent, Size: 4},
		{Name: "state.mode", Category: trace.InHistory, Size: 1},
	}}
	sel.Canonicalize()
	st := NewSnipTable(sel)
	for i := 0; i < 50; i++ {
		x, y, mode, _, _ := synthRow(n, i)
		st.Insert(&trace.Record{
			EventSeq: int64(i), EventType: "tap", Instr: 100, StateChanged: true,
			Inputs: []trace.Field{
				{Name: "event.tap.x", Category: trace.InEvent, Size: 4, Value: x},
				{Name: "event.tap.y", Category: trace.InEvent, Size: 4, Value: y},
				{Name: "state.mode", Category: trace.InHistory, Size: 1, Value: mode},
			},
			Outputs: []trace.Field{
				{Name: "state.out", Category: trace.OutHistory, Size: 4, Value: x + y},
			},
		})
	}
	next, err := Flatten(st)
	if err != nil {
		t.Fatal(err)
	}

	d, err := DiffFlat("g", 1, 2, base, next)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Image(), next.Image()) {
		t.Fatal("patched image differs after selection change")
	}
}

func TestApplyDeltaRejects(t *testing.T) {
	const n = 256
	base := deltaRows(t, n, seqIDs(0, 100), nil)
	next := deltaRows(t, n, seqIDs(0, 110), nil)
	good, err := DiffFlat("g", 1, 2, base, next)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		base *FlatTable
		warp func(d *trace.TableDelta)
	}{
		{"wrong base image", next, func(d *trace.TableDelta) {}},
		{"tampered target CRC", base, func(d *trace.TableDelta) { d.ToCRC ^= 1 }},
		{"tampered upsert payload", base, func(d *trace.TableDelta) { d.Upserts[0].Instr++ }},
		{"removal of unknown entry", base, func(d *trace.TableDelta) {
			d.Removed = append(d.Removed, trace.DeltaKey{Type: "tap", EventKey: 1, StateKey: 2})
		}},
		{"upsert position out of range", base, func(d *trace.TableDelta) { d.Upserts[0].Pos = 1 << 20 }},
		{"upsert into unknown type", base, func(d *trace.TableDelta) { d.Upserts[0].Key.Type = "swipe"; d.Upserts[0].Pos = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := *good
			d.Removed = append([]trace.DeltaKey(nil), good.Removed...)
			d.Upserts = append([]trace.DeltaEntry(nil), good.Upserts...)
			for i := range d.Upserts {
				d.Upserts[i].Outputs = append([]trace.Field(nil), good.Upserts[i].Outputs...)
			}
			tc.warp(&d)
			if _, err := ApplyDelta(tc.base, &d); !errors.Is(err, ErrDeltaMismatch) {
				t.Fatalf("err = %v, want ErrDeltaMismatch", err)
			}
		})
	}
}

// Three generations through the encoded wire form: decode(encode(chain))
// applied to the oldest image must land byte-identical on the newest.
func TestDeltaChainRoundTrip(t *testing.T) {
	const n = 256
	v1 := deltaRows(t, n, seqIDs(0, 80), nil)
	v2 := deltaRows(t, n, seqIDs(0, 90), nil)
	v3 := deltaRows(t, n, seqIDs(0, 97), map[int]uint64{11: 3})

	d12, err := DiffFlat("g", 1, 2, v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	d23, err := DiffFlat("g", 2, 3, v2, v3)
	if err != nil {
		t.Fatal(err)
	}
	chain := &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{*d12, *d23}}
	var buf bytes.Buffer
	if err := trace.EncodeDeltaChain(&buf, chain); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.DecodeDeltaChain(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ApplyDeltaChain(v1, dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Image(), v3.Image()) {
		t.Fatal("chain apply differs from the newest image")
	}

	// A gap in the chain (v1→v2 missing) must be refused, not papered
	// over by the CRC of the surviving link.
	if _, err := ApplyDeltaChain(v1, &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{*d23}}); !errors.Is(err, ErrDeltaMismatch) {
		t.Fatalf("gap err = %v, want ErrDeltaMismatch", err)
	}
	gapped := &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{*d12, *d23}}
	gapped.Deltas[1].FromVersion = 5
	if _, err := ApplyDeltaChain(v1, gapped); !errors.Is(err, ErrDeltaMismatch) {
		t.Fatalf("discontinuity err = %v, want ErrDeltaMismatch", err)
	}
	if _, err := ApplyDeltaChain(v1, &trace.DeltaChain{Game: "g"}); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func deltaBenchPair(b *testing.B, rows, added int) (*FlatTable, *FlatTable, *trace.TableDelta) {
	b.Helper()
	base := deltaRows(b, rows, seqIDs(0, rows), nil)
	next := deltaRows(b, rows, seqIDs(0, rows+added), nil)
	d, err := DiffFlat("g", 1, 2, base, next)
	if err != nil {
		b.Fatal(err)
	}
	return base, next, d
}

func BenchmarkDiffFlat(b *testing.B) {
	for _, rows := range []int{1 << 12} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			base, next, _ := deltaBenchPair(b, rows, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DiffFlat("g", 1, 2, base, next); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rewriteBenchPair is the delta a selection change produces: rows
// entries in one bucket, keyed on state.b in the base and state.c in
// the target, so the delta removes every key of the bucket and upserts
// every key back.
func rewriteBenchPair(b *testing.B, rows int) (*FlatTable, *trace.TableDelta) {
	b.Helper()
	rs := make([]refRow, rows)
	for i := range rs {
		rs[i] = refRow{et: "tap", a: uint64(i), b: uint64(i % 7), c: uint64(i % 5)}
	}
	base := refRowsTable(b, refSelection([]string{"tap"}, nil), rs)
	next := refRowsTable(b, refSelection([]string{"tap"}, map[string]bool{"tap": true}), rs)
	d, err := DiffFlat("g", 1, 2, base, next)
	if err != nil {
		b.Fatal(err)
	}
	if len(d.Removed) != rows || len(d.Upserts) != rows {
		b.Fatalf("rewrite delta removes %d and upserts %d, want %d each", len(d.Removed), len(d.Upserts), rows)
	}
	return base, d
}

// BenchmarkApplyDelta times one apply per shape: append (64 new rows
// spread over a table's small buckets, the stable-selection rebuild)
// and rewrite (every key of one large bucket removed and upserted, the
// selection-change rebuild). ci.sh gates rewrite's 8k/2k ns/op ratio:
// linear apply gives about 4, a quadratic one about 16.
func BenchmarkApplyDelta(b *testing.B) {
	for _, rows := range []int{1 << 11, 1 << 13} {
		b.Run(fmt.Sprintf("append/rows=%d", rows), func(b *testing.B) {
			base, _, d := deltaBenchPair(b, rows, 64)
			benchApply(b, base, d)
		})
		b.Run(fmt.Sprintf("rewrite/rows=%d", rows), func(b *testing.B) {
			base, d := rewriteBenchPair(b, rows)
			benchApply(b, base, d)
		})
	}
}

func benchApply(b *testing.B, base *FlatTable, d *trace.TableDelta) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApplyDelta(base, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaAppliedLookupHit pins that a table REACHED via delta
// apply serves lookups exactly like a full-image load: 0 allocs/op
// (gated in ci.sh — apply may allocate, the post-swap serving path may
// not).
func BenchmarkDeltaAppliedLookupHit(b *testing.B) {
	const rows = 2048
	base, _, d := deltaBenchPair(b, rows, 64)
	ft, err := ApplyDelta(base, d)
	if err != nil {
		b.Fatal(err)
	}
	resolve := SynthHit(rows, 777)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := ft.Lookup("tap", resolve); !ok {
			b.Fatal("expected hit")
		}
	}
}

// A delta's encoded bytes are a pure function of the delta: encoding the
// same chain over and over yields the same bytes, whatever order the
// selection's event types come out of the Selection map in.
func TestDeltaChainEncodingDeterministic(t *testing.T) {
	const n = 256
	sel := SynthSelection()
	for _, et := range []string{"swipe", "vsync", "drag", "pinch", "sensor", "timer", "net"} {
		sel[et] = []SelectedField{
			{Name: "event." + et + ".x", Category: trace.InEvent, Size: 4},
			{Name: "state." + et, Category: trace.InHistory, Size: 2},
		}
	}
	sel.Canonicalize()
	v1, v2 := deltaRowsUnder(t, sel, n, seqIDs(0, 60), nil), deltaRowsUnder(t, sel, n, seqIDs(0, 70), nil)
	d, err := DiffFlat("g", 1, 2, v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Selection) != len(sel) {
		t.Fatalf("delta carries %d selection types, want %d", len(d.Selection), len(sel))
	}
	chain := &trace.DeltaChain{Game: "g", Deltas: []trace.TableDelta{*d}}
	var first []byte
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := trace.EncodeDeltaChain(&buf, chain); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("encoding %d differs from the first (%d vs %d bytes)", i, buf.Len(), len(first))
		}
	}
	dec, err := trace.DecodeDeltaChain(bytes.NewReader(first), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ApplyDeltaChain(v1, dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Image(), v2.Image()) {
		t.Fatal("decoded chain does not patch onto the target image")
	}
}

// namePool returns a table's output-name pool in image order.
func namePool(ft *FlatTable) []string {
	r := flatReader{b: ft.section(secNames)}
	pool := make([]string, r.u32())
	for i := range pool {
		pool[i] = r.str()
	}
	return pool
}

// TestSpliceMatchesOracles: each named rebuild shape is diffed by the
// merge walk and the map-keyed diff it replaced (equal deltas), then
// applied by the splice and by both earlier applies (byte-identical
// images, the target's). Every FuzzApplyDelta seed is applied too, and
// there the three must also agree on ErrDeltaMismatch.
func TestSpliceMatchesOracles(t *testing.T) {
	gen := func(et string, n, nb int, salt uint64, from int) []refRow {
		rs := make([]refRow, n)
		for i := range rs {
			id := uint64(from + i)
			rs[i] = refRow{et: et, x: uint64(i % nb), a: id, b: id % 8, c: id % 5, salt: salt}
		}
		return rs
	}
	types := []string{"tap", "vsync"}
	baseRows := append(gen("tap", 60, 4, 0, 0), gen("vsync", 30, 3, 0, 100)...)
	base := refRowsTable(t, refSelection(types, nil), baseRows)
	var removal, bucketGone []refRow
	for i, r := range baseRows {
		if i%5 != 0 {
			removal = append(removal, r)
		}
		if r.et != "tap" || r.x != 0 {
			bucketGone = append(bucketGone, r)
		}
	}
	newBucket := append(append([]refRow(nil), baseRows...), gen("tap", 6, 1, 0, 200)...)
	for i := range newBucket[len(baseRows):] {
		newBucket[len(baseRows)+i].x = 9
	}
	cases := []struct {
		name string
		sel  Selection
		rows []refRow
	}{
		{"append", refSelection(types, nil), append(append([]refRow(nil), baseRows...), gen("tap", 10, 4, 0, 300)...)},
		{"removal only", refSelection(types, nil), removal},
		{"changed outputs", refSelection(types, nil), append(gen("tap", 60, 4, 3, 0), gen("vsync", 30, 3, 0, 100)...)},
		{"selection change", refSelection(types, map[string]bool{"tap": true}), baseRows},
		{"whole bucket removed", refSelection(types, nil), bucketGone},
		{"new bucket", refSelection(types, nil), newBucket},
		{"new name renumbers pool", refSelection(append([]string{"swipe"}, types...), nil), append(gen("swipe", 8, 2, 0, 400), baseRows...)},
		{"empty target", refSelection(types, nil), nil},
	}
	for _, tc := range cases {
		next := refRowsTable(t, tc.sel, tc.rows)
		if tc.name == "new name renumbers pool" {
			if bp, np := namePool(base), namePool(next); len(np) <= len(bp) || slices.Equal(np[:len(bp)], bp) {
				t.Fatalf("%s: pool %q does not renumber %q", tc.name, np, bp)
			}
		}
		d, err := DiffFlat("g", 1, 2, base, next)
		if err != nil {
			t.Fatal(err)
		}
		if ref, _ := refDiffFlat("g", 1, 2, base, next); !reflect.DeepEqual(d, ref) {
			t.Fatalf("%s: DiffFlat differs from the map-keyed diff", tc.name)
		}
		got, err := ApplyDelta(base, d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got.Image(), next.Image()) {
			t.Fatalf("%s: spliced image differs from the target", tc.name)
		}
		for oracle, apply := range map[string]func(*FlatTable, *trace.TableDelta) (*FlatTable, error){
			"scan-and-shift": refApplyDelta, "bucket-at-a-time": bucketApplyDelta} {
			if want, err := apply(base, d); err != nil || !bytes.Equal(want.Image(), got.Image()) {
				t.Fatalf("%s: %s apply disagrees (%v)", tc.name, oracle, err)
			}
		}
	}

	fbase, seeds := applyDeltaSeeds(t)
	for i, seed := range seeds {
		c, err := trace.DecodeDeltaChain(bytes.NewReader(seed), 1<<22)
		if err != nil {
			continue
		}
		for j := range c.Deltas {
			d := &c.Deltas[j]
			got, gerr := ApplyDelta(fbase, d)
			want, werr := refApplyDelta(fbase, d)
			bw, berr := bucketApplyDelta(fbase, d)
			if diff := sameApplyOutcome(want, werr, got, gerr) + sameApplyOutcome(bw, berr, got, gerr); diff != "" {
				t.Fatalf("fuzz seed %d delta %d: %s", i, j, diff)
			}
			if gerr != nil && !errors.Is(gerr, ErrDeltaMismatch) {
				t.Fatalf("fuzz seed %d delta %d: %v is not ErrDeltaMismatch", i, j, gerr)
			}
		}
	}
}
