package trace

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"io"
	"math/rand/v2"
	"reflect"
	"testing"

	"snip/internal/units"
)

// randomRecords returns n records over a small vocabulary, so that the
// columnar layout meets every case the record list allowed: field names
// seen with two sizes and with several categories, names logged both as
// inputs and as outputs, duplicates within a row, rows that log nothing,
// and repeats across rows. prefix renames every field, to build datasets
// with disjoint dictionaries.
func randomRecords(r *rand.Rand, n int, prefix string) []*Record {
	types := []string{"tap", "vsync", "swipe"}
	names := []string{"e.x", "s.a", "s.b", "x.n", "t.p"}
	fields := func() []Field {
		var fs []Field
		for k := r.IntN(5); k > 0; k-- {
			fs = append(fs, Field{
				Name:     prefix + names[r.IntN(len(names))],
				Category: Category(r.IntN(NumCategories)),
				Size:     []units.Size{4, 8}[r.IntN(2)],
				Value:    r.Uint64N(3),
			})
		}
		return fs
	}
	out := make([]*Record, n)
	for i := range out {
		out[i] = &Record{
			EventSeq: int64(i), EventType: types[r.IntN(len(types))], EventHash: r.Uint64N(4),
			Time: units.Time(10 * i), Instr: r.Int64N(5000), PreStateHash: r.Uint64N(3),
			Inputs: fields(), Outputs: fields(), StateChanged: r.IntN(2) == 0,
		}
	}
	return out
}

// records rebuilds every row of d.
func records(d *Dataset) []*Record {
	var out []*Record
	d.All()(func(i int, r *Record) bool {
		if i != len(out) {
			panic("All skipped a row")
		}
		out = append(out, r)
		return true
	})
	return out
}

// sameRecords fails t unless d's rows rebuild exactly the records want.
func sameRecords(t *testing.T, what string, d *Dataset, want []*Record) {
	t.Helper()
	if d.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, d.Len(), len(want))
	}
	got := records(d)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestDatasetRecordRoundTrip: a record copied in comes back exactly —
// field order, duplicates, and a name whose size changed between rows.
func TestDatasetRecordRoundTrip(t *testing.T) {
	want := []*Record{
		rec(1, "tap", true,
			[]Field{f("s.a", InHistory, 8, 5), f("e.x", InEvent, 4, 1), f("s.a", InHistory, 8, 6)},
			[]Field{f("s.a", OutHistory, 8, 6), f("t.p", OutTemp, 4, 9), f("s.a", OutHistory, 8, 7)}),
		rec(2, "vsync", false, nil, nil),
		rec(3, "tap", true,
			[]Field{f("s.a", InHistory, 16, 6), f("e.x", InEvent, 4, 1)},
			[]Field{f("s.a", OutHistory, 16, 8)}),
	}
	want[0].PreStateHash, want[2].Time = 77, 40
	d := &Dataset{Game: "g"}
	d.Append(want...)
	sameRecords(t, "append", d, want)
	if d.NumFields() != 6 || d.NumTypes() != 2 {
		t.Fatalf("dictionaries hold %d fields and %d types, want 6 and 2", d.NumFields(), d.NumTypes())
	}
}

// TestDatasetMergeMatchesAppend: merging datasets, with disjoint or with
// overlapping dictionaries, equals appending their records serially.
func TestDatasetMergeMatchesAppend(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 0))
	for _, tc := range []struct{ name, prefixB string }{{"overlapping", ""}, {"disjoint", "b."}} {
		a, b := randomRecords(r, 40, ""), randomRecords(r, 30, tc.prefixB)
		serial := &Dataset{Game: "g"}
		serial.Append(a...)
		serial.Append(b...)
		da, db := &Dataset{Game: "g"}, &Dataset{Game: "g"}
		da.Append(a...)
		db.Append(b...)
		da.Merge(db)
		all := append(append([]*Record(nil), a...), b...)
		sameRecords(t, tc.name+" merge", da, all)
		sameRecords(t, tc.name+" serial", serial, all)
		da.Merge(da)
		sameRecords(t, tc.name+" self-merge", da, append(all, all...))
		// The merged-from dataset is left as it was.
		sameRecords(t, tc.name+" source", db, b)
	}
}

// TestDatasetScratchKeepsExact: a session logged into scratch buffers
// and kept holds its rows in one chunk with capacity equal to length in
// every column and both cell streams, a row left open dropped. A session
// logged after it, into the buffers Keep handed back, shares no array
// with it and leaves its rows as they were.
func TestDatasetScratchKeepsExact(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 0))
	var kept []*Dataset
	var want [][]*Record
	for _, n := range []int{300, 500, 0, 40} {
		recs := randomRecords(r, n, "")
		d := Scratch("g")
		d.Append(recs...)
		d.BeginRow(int64(n), "tap", 0, 1, 2)
		d.LogInput("", "s.a", InHistory, 8, 3)
		d.Keep()
		d.Keep()
		if len(d.chunks) != 1 {
			t.Fatalf("%d rows kept in %d chunks, want 1", n, len(d.chunks))
		}
		cols := chunkColumns(d.chunks[0])
		for i, col := range cols {
			if col.Cap() != col.Len() {
				t.Fatalf("%d rows: column %d has cap %d, len %d", n, i, col.Cap(), col.Len())
			}
		}
		for k, prev := range kept {
			for i, col := range chunkColumns(prev.chunks[0]) {
				if col.Len() > 0 && cols[i].Len() > 0 && col.Pointer() == cols[i].Pointer() {
					t.Fatalf("session %d shares column %d with session %d", len(kept), i, k)
				}
			}
		}
		kept, want = append(kept, d), append(want, recs)
	}
	for i, d := range kept {
		sameRecords(t, "kept session", d, want[i])
	}
}

// chunkColumns returns every column of c, both cell streams included.
func chunkColumns(c *chunk) []reflect.Value {
	cols := []reflect.Value{
		reflect.ValueOf(c.seq), reflect.ValueOf(c.instr), reflect.ValueOf(c.typ), reflect.ValueOf(c.time),
		reflect.ValueOf(c.pre), reflect.ValueOf(c.ehash), reflect.ValueOf(c.changed),
	}
	for dir := range c.cells {
		cols = append(cols, reflect.ValueOf(c.cells[dir]), reflect.ValueOf(c.ends[dir]))
	}
	return cols
}

// TestDatasetChunksMatchReference: a profile merged from sessions holds
// each session as a chunk of its own. Every reader, and Split, Truncate
// and FilterTypes across chunk bounds, answer as the record list does;
// so do the sessions, which now read through the profile's dictionaries,
// and a second profile the first is merged into, which must leave the
// chunks the two share as they were. Rows logged after a merge go to a
// new chunk.
func TestDatasetChunksMatchReference(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		r := rand.New(rand.NewPCG(seed, 2))
		d, ref := &Dataset{Game: "g"}, &refDataset{Game: "g"}
		var sessions []*Dataset
		var sessionRefs []*refDataset
		for k := r.IntN(5); k > 0; k-- {
			recs := randomRecords(r, r.IntN(20), []string{"", "b."}[r.IntN(2)])
			s := &Dataset{Game: "g"}
			s.Append(recs...)
			d.Merge(s)
			ref.Append(recs...)
			sessions, sessionRefs = append(sessions, s), append(sessionRefs, &refDataset{Game: "g", Records: recs})
		}
		checkAgainstRef(t, seed, d, ref)
		checkAgainstRef(t, seed, d.FilterTypes("vsync"), ref.FilterTypes("vsync"))
		frac := r.Float64()
		tr, ev := d.Split(frac)
		trRef, evRef := ref.Split(frac)
		checkAgainstRef(t, seed, tr, trRef)
		checkAgainstRef(t, seed, ev, evRef)
		n := r.IntN(80)
		checkAgainstRef(t, seed, d.Truncate(n), ref.Truncate(n))

		e := &Dataset{Game: "g"}
		e.Append(randomRecords(r, 5, "c.")...)
		eRef := &refDataset{Game: "g", Records: records(e)}
		e.Merge(d)
		eRef.Merge(ref)
		checkAgainstRef(t, seed, e, eRef)
		extra := randomRecords(r, 3, "")
		d.Append(extra...)
		ref.Append(extra...)
		checkAgainstRef(t, seed, d, ref)
		checkAgainstRef(t, seed, e, eRef)
		for k, s := range sessions {
			checkAgainstRef(t, seed, s, sessionRefs[k])
		}
	}
}

// TestDatasetConcurrentRows: readers on several goroutines walk one
// chunked dataset at once, as PFI's per-type workers do.
func TestDatasetConcurrentRows(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	d := &Dataset{Game: "g"}
	for k := 0; k < 8; k++ {
		s := &Dataset{Game: "g"}
		s.Append(randomRecords(r, 25, "")...)
		d.Merge(s)
	}
	want := records(d)
	done := make(chan []*Record)
	for w := 0; w < 4; w++ {
		go func() { done <- records(d) }()
	}
	for w := 0; w < 4; w++ {
		if got := <-done; !reflect.DeepEqual(got, want) {
			t.Fatal("a concurrent walk read other rows")
		}
	}
}

// TestDatasetSplitTruncateIndependent: Split and Truncate return copies.
// Appending to a Split train half must not overwrite the first eval row,
// nor appending to a Truncate the source's next row.
func TestDatasetSplitTruncateIndependent(t *testing.T) {
	d := mkDataset()
	want := records(d)
	extra := rec(99, "swipe", true, []Field{f("z", InEvent, 4, 1)}, nil)

	train, eval := d.Split(0.5)
	train.Append(extra)
	sameRecords(t, "eval after appending to train", eval, want[2:])
	sameRecords(t, "source after appending to train", d, want)

	d.Truncate(1).Append(extra)
	sameRecords(t, "source after appending to a truncation", d, want)

	trunc := d.Truncate(2)
	d.Append(extra)
	sameRecords(t, "truncation after appending to the source", trunc, want[:2])
}

// TestDatasetMatchesReference runs the columnar Dataset and the record
// list it replaced over seeded random record sequences, and checks that
// every method answers the same and every encoding is byte-identical.
func TestDatasetMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 1))
		recs := randomRecords(r, r.IntN(60), "")
		d, ref := &Dataset{Game: "g"}, &refDataset{Game: "g"}
		d.Append(recs...)
		ref.Append(recs...)
		checkAgainstRef(t, seed, d, ref)

		u, uref := d.FilterTypes("vsync"), ref.FilterTypes("vsync")
		checkAgainstRef(t, seed, u, uref)
		frac := r.Float64()
		tr, ev := d.Split(frac)
		trRef, evRef := ref.Split(frac)
		checkAgainstRef(t, seed, tr, trRef)
		checkAgainstRef(t, seed, ev, evRef)
		n := r.IntN(70)
		checkAgainstRef(t, seed, d.Truncate(n), ref.Truncate(n))
	}
	checkAgainstRef(t, 0, mkDataset(), &refDataset{Game: "test", Records: records(mkDataset())})
}

func checkAgainstRef(t *testing.T, seed uint64, d *Dataset, ref *refDataset) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("seed %d: %s = %v, reference %v", seed, what, got, want)
	}
	sameRecords(t, "rows", d, ref.Records)
	if d.Game != ref.Game {
		fail("Game", d.Game, ref.Game)
	}
	for i, r := range ref.Records {
		if d.InputHash(i) != refInputHash(r) || d.OutputHash(i) != refOutputHash(r) {
			fail("row hashes", i, "the record's")
		}
	}
	if got, want := d.TotalInstr(), ref.TotalInstr(); got != want {
		fail("TotalInstr", got, want)
	}
	if got, want := d.InputFieldUniverse(), ref.InputFieldUniverse(); !reflect.DeepEqual(got, want) {
		fail("InputFieldUniverse", got, want)
	}
	if got, want := d.UnionInputWidth(), ref.UnionInputWidth(); got != want {
		fail("UnionInputWidth", got, want)
	}
	if got, want := d.UnionOutputWidth(), ref.UnionOutputWidth(); got != want {
		fail("UnionOutputWidth", got, want)
	}
	ge, gi := d.UselessFraction()
	we, wi := ref.UselessFraction()
	if ge != we || gi != wi {
		fail("UselessFraction", [2]float64{ge, gi}, [2]float64{we, wi})
	}
	if got, want := d.RepeatedFraction(), ref.RepeatedFraction(); got != want {
		fail("RepeatedFraction", got, want)
	}
	if got, want := d.RedundantFraction(), ref.RedundantFraction(); got != want {
		fail("RedundantFraction", got, want)
	}
	gc, go_ := d.SizeCDFs()
	wc, wo := ref.SizeCDFs()
	if !reflect.DeepEqual(gc, wc) || go_ != wo {
		fail("SizeCDFs", go_, wo)
	}
	var got, want bytes.Buffer
	if err := WriteJSON(&got, d); err != nil {
		t.Fatal(err)
	}
	if err := ref.writeJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		fail("WriteJSON", got.String(), want.String())
	}
	// Gob numbers types process-wide in first-use order, so two encoders
	// of equal streams can differ in a type id's length: compare the
	// streams by what they decode to. (The figures pin TransferSize.)
	for _, wire := range [][]byte{encode(t, d), encodeRef(t, ref)} {
		sameRecords(t, "decoded", decodeDataset(t, wire), ref.Records)
	}
}

func encode(t *testing.T, d *Dataset) []byte {
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeRef is Encode as it was: the gob of the record-list Dataset.
func encodeRef(t *testing.T, ref *refDataset) []byte {
	type Dataset refDataset
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := io.WriteString(bw, magicFull); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(bw).Encode((*Dataset)(ref)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
