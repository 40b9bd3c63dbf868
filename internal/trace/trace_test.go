package trace

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"testing/quick"

	"snip/internal/units"
)

func rec(seq int64, etype string, changed bool, ins, outs []Field) *Record {
	return &Record{
		EventSeq: seq, EventType: etype, EventHash: uint64(seq) * 31,
		Instr: 1000, StateChanged: changed, Inputs: ins, Outputs: outs,
	}
}

func f(name string, cat Category, size units.Size, val uint64) Field {
	return Field{Name: name, Category: cat, Size: size, Value: val}
}

func TestCategoryProperties(t *testing.T) {
	inputs := []Category{InEvent, InHistory, InExtern}
	outputs := []Category{OutTemp, OutHistory, OutExtern}
	for _, c := range inputs {
		if !c.IsInput() {
			t.Fatalf("%v should be input", c)
		}
	}
	for _, c := range outputs {
		if c.IsInput() {
			t.Fatalf("%v should be output", c)
		}
	}
	if InEvent.String() != "In.Event" || OutTemp.String() != "Out.Temp" {
		t.Fatal("category names wrong")
	}
}

func TestInputHashSelectivity(t *testing.T) {
	d := &Dataset{}
	d.Append(
		rec(1, "tap", true, []Field{f("a", InEvent, 4, 10), f("b", InHistory, 4, 20)}, nil),
		rec(2, "tap", true, []Field{f("a", InEvent, 4, 10), f("b", InHistory, 4, 21)}, nil),
		rec(3, "tap", true, []Field{f("a", InEvent, 4, 10), f("c", InHistory, 4, 20)}, nil),
		// Same fields, same values -> same hash.
		rec(99, "tap", false, []Field{f("a", InEvent, 4, 10), f("b", InHistory, 4, 20)}, nil),
	)
	if d.InputHash(0) == d.InputHash(1) || d.InputHash(0) == d.InputHash(2) {
		t.Fatal("input hash not selective")
	}
	if d.InputHash(0) != d.InputHash(3) {
		t.Fatal("hash depends on non-field data")
	}
}

func TestOutputHashAndAccessors(t *testing.T) {
	r := rec(1, "tap", true, nil,
		[]Field{f("x", OutHistory, 4, 7), f("y", OutTemp, 4, 8)})
	r2 := rec(2, "tap", true, nil,
		[]Field{f("x", OutHistory, 4, 7), f("y", OutTemp, 4, 9)})
	d := &Dataset{}
	d.Append(r, r2)
	if d.OutputHash(0) == d.OutputHash(1) {
		t.Fatal("output hash collision")
	}
	if fld, ok := r.Output("x"); !ok || fld.Value != 7 {
		t.Fatal("Output accessor wrong")
	}
	if _, ok := r.Output("zz"); ok {
		t.Fatal("phantom output")
	}
	if _, ok := r.Input("x"); ok {
		t.Fatal("output found among inputs")
	}
}

func TestHashHelpers(t *testing.T) {
	if HashString("abc") == HashString("abd") {
		t.Fatal("string hash collision")
	}
	if HashValues(1, 2) == HashValues(2, 1) {
		t.Fatal("value hash is order-insensitive")
	}
	if Combine(1, 2) == Combine(2, 1) {
		t.Fatal("combine is commutative")
	}
}

func mkDataset() *Dataset {
	d := &Dataset{Game: "test"}
	d.Append(
		rec(1, "tap", true,
			[]Field{f("e.x", InEvent, 4, 1), f("s.a", InHistory, 8, 5)},
			[]Field{f("s.a", OutHistory, 8, 6)}),
		rec(2, "tap", false,
			[]Field{f("e.x", InEvent, 4, 1), f("s.a", InHistory, 8, 6)},
			[]Field{f("t.p", OutTemp, 4, 9)}),
		rec(3, "tap", true,
			[]Field{f("e.x", InEvent, 4, 2), f("s.a", InHistory, 8, 6), f("x.n", InExtern, 4096, 7)},
			[]Field{f("s.a", OutHistory, 8, 7)}),
		rec(4, "vsync", false,
			[]Field{f("s.a", InHistory, 8, 7)},
			[]Field{f("t.p", OutTemp, 4, 9)}),
	)
	return d
}

func TestDatasetBasics(t *testing.T) {
	d := mkDataset()
	if d.Len() != 4 || d.TotalInstr() != 4000 {
		t.Fatalf("len=%d instr=%d", d.Len(), d.TotalInstr())
	}
	ev, weight := d.UselessFraction()
	if ev != 0.5 || weight != 0.5 {
		t.Fatalf("useless %v/%v", ev, weight)
	}
}

func TestInputFieldUniverse(t *testing.T) {
	d := mkDataset()
	u := d.InputFieldUniverse()
	if len(u) != 3 {
		t.Fatalf("universe %v", u)
	}
	// Sorted by name; occurrence and distinct counts correct.
	byName := map[string]FieldInfo{}
	for _, fi := range u {
		byName[fi.Name] = fi
	}
	if byName["e.x"].Occurrence != 3 || byName["e.x"].Distinct != 2 {
		t.Fatalf("e.x info %+v", byName["e.x"])
	}
	if byName["s.a"].Occurrence != 4 || byName["s.a"].Distinct != 3 {
		t.Fatalf("s.a info %+v", byName["s.a"])
	}
	if d.UnionInputWidth() != 4+8+4096 {
		t.Fatalf("union width %v", d.UnionInputWidth())
	}
	if d.UnionOutputWidth() != 8+4 {
		t.Fatalf("union output width %v", d.UnionOutputWidth())
	}
}

func TestRepeatedAndRedundant(t *testing.T) {
	d := &Dataset{}
	// Repeats are judged on the UNION record: event hash, state hash and
	// read fields must all match.
	mk := func(seq int64, inVal, outVal uint64) *Record {
		r := rec(seq, "tap", true,
			[]Field{f("x", InEvent, 4, inVal)},
			[]Field{f("o", OutHistory, 4, outVal)})
		r.EventHash = inVal * 7
		r.PreStateHash = 99
		return r
	}
	d.Append(mk(1, 1, 10), mk(2, 1, 10), mk(3, 2, 10), mk(4, 3, 11))
	// Record 2 repeats record 1 exactly (1/4); records 2 and 3 reproduce
	// output 10 (2/4 redundant).
	if got := d.RepeatedFraction(); got != 0.25 {
		t.Fatalf("repeated %v", got)
	}
	if got := d.RedundantFraction(); got != 0.5 {
		t.Fatalf("redundant %v", got)
	}
}

func TestSizeCDFs(t *testing.T) {
	d := mkDataset()
	cdfs, occ := d.SizeCDFs()
	if occ[InEvent] != 0.75 { // 3 of 4 records have In.Event inputs
		t.Fatalf("In.Event occurrence %v", occ[InEvent])
	}
	if occ[InExtern] != 0.25 {
		t.Fatalf("In.Extern occurrence %v", occ[InExtern])
	}
	if cdfs[InExtern].N() != 1 || cdfs[InExtern].Quantile(0.5) != 4096 {
		t.Fatal("In.Extern CDF wrong")
	}
}

func TestSplitTruncateFilter(t *testing.T) {
	d := mkDataset()
	tr, ev := d.Split(0.5)
	if tr.Len() != 2 || ev.Len() != 2 {
		t.Fatalf("split %d/%d", tr.Len(), ev.Len())
	}
	if d.Truncate(2).Len() != 2 || d.Truncate(100).Len() != 4 {
		t.Fatal("truncate wrong")
	}
	u := d.FilterTypes("vsync")
	if u.Len() != 3 {
		t.Fatalf("filter left %d", u.Len())
	}
	for i := 0; i < u.Len(); i++ {
		if u.Record(i).EventType == "vsync" {
			t.Fatal("vsync survived the filter")
		}
	}
}

// decodeSizeModel reads back a stream Encode or EncodeEventsOnly wrote.
// No program reads these streams — they exist to be measured by
// TransferSize and EventsOnlyTransferSize — so the tests decode them
// here, to check that the bytes the size model counts carry the whole
// profile or log.
func decodeSizeModel(t *testing.T, wire []byte, magic string, v any) {
	t.Helper()
	if !bytes.HasPrefix(wire, []byte(magic)) {
		t.Fatalf("stream does not start with magic %q", magic)
	}
	if err := gob.NewDecoder(bytes.NewReader(wire[len(magic):])).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// decodeDataset reads back a dataset written by Encode.
func decodeDataset(t *testing.T, wire []byte) *Dataset {
	t.Helper()
	var w struct {
		Game    string
		Records []*Record
	}
	decodeSizeModel(t, wire, magicFull, &w)
	d := &Dataset{Game: w.Game}
	d.Append(w.Records...)
	return d
}

func TestCodecRoundtrip(t *testing.T) {
	d := mkDataset()
	var buf bytes.Buffer
	if err := Encode(&buf, d); err != nil {
		t.Fatal(err)
	}
	got := decodeDataset(t, buf.Bytes())
	if got.Len() != d.Len() || got.Game != d.Game {
		t.Fatalf("roundtrip lost data: %d records", got.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if got.OutputHash(i) != d.OutputHash(i) {
			t.Fatalf("record %d outputs changed", i)
		}
		if got.InputHash(i) != d.InputHash(i) {
			t.Fatalf("record %d inputs changed", i)
		}
	}
}

// TestCodecRejectsBadMagic: the session-batch decoder, the one upload
// reader left, refuses at the magic both junk and the gob streams of
// the size model, which is also the body the retired per-session
// upload endpoint took.
func TestCodecRejectsBadMagic(t *testing.T) {
	if _, err := DecodeBatch(bytes.NewBufferString("NOTSNIP11xxxx")); err == nil {
		t.Fatal("bad magic accepted")
	}
	var events, full bytes.Buffer
	if err := EncodeEventsOnly(&events, &EventLog{Game: "g"}); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&full, mkDataset()); err != nil {
		t.Fatal(err)
	}
	for name, wire := range map[string][]byte{"events-only log": events.Bytes(), "full profile": full.Bytes()} {
		if _, err := DecodeBatch(bytes.NewReader(wire)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("%s decoded as a session batch: %v", name, err)
		}
	}
}

func TestEventsOnlyRoundtrip(t *testing.T) {
	l := &EventLog{Game: "g", Events: []LoggedEvent{
		{Type: "tap", Seq: 1, Time: 5, Values: []int64{1, 2, 3, 0, 1}},
		{Type: "vsync", Seq: 2, Time: 6, Values: []int64{7}},
	}}
	var buf bytes.Buffer
	if err := EncodeEventsOnly(&buf, l); err != nil {
		t.Fatal(err)
	}
	var got EventLog
	decodeSizeModel(t, buf.Bytes(), magicEventsOnly, &got)
	if len(got.Events) != 2 || got.Events[0].Values[2] != 3 {
		t.Fatalf("roundtrip %+v", got)
	}
}

func TestTransferSizes(t *testing.T) {
	d := mkDataset()
	full, err := TransferSize(d)
	if err != nil {
		t.Fatal(err)
	}
	l := &EventLog{Game: "g", Events: []LoggedEvent{{Type: "tap", Values: []int64{1}}}}
	small, err := EventsOnlyTransferSize(l)
	if err != nil {
		t.Fatal(err)
	}
	if full <= 0 || small <= 0 {
		t.Fatal("transfer sizes should be positive")
	}
	if small >= full {
		t.Fatalf("events-only (%v) should undercut the full profile (%v)", small, full)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, mkDataset()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"event_type":"tap"`)) {
		t.Fatal("json output missing fields")
	}
	// One line per record.
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 4 {
		t.Fatalf("%d json lines", n)
	}
}

func TestHashValuesProperty(t *testing.T) {
	// Appending a value must change the hash (prefix-freedom in practice).
	prop := func(xs []int64, extra int64) bool {
		a := HashValues(xs...)
		b := HashValues(append(append([]int64{}, xs...), extra)...)
		return a != b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
