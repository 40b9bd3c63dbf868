package pfi

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"

	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

// goldenSessions and goldenSecs pin the multi-session profile the golden
// digests are taken on: seeds 0xA1.. (the snip.Profile default base),
// each session this many simulated seconds long.
const (
	goldenSessions = 4
	goldenSecs     = 15
)

// goldenDigests pins digestResult of a DefaultConfig PFI run on each
// bundled game's golden profile. Any change to the search — field
// order, RNG streams, key hashing, prediction rule, elimination order —
// moves these; a pure speed-up of the search must not.
var goldenDigests = map[string]uint64{
	"Colorphun":    0xb12a1697b1b2b28b,
	"MemoryGame":   0xdef253869806cb34,
	"CandyCrush":   0xdefb541b919f73c3,
	"Greenwall":    0xa5494c30970a1ef6,
	"ABEvolution":  0xcfccba3cc740d3c5,
	"ChaseWhisply": 0xb9fe1fc701c8f5fb,
	"RaceKings":    0x6aa4c7cba99e0837,
}

// recordProfile records a game's pinned profile of the given number of
// sessions.
func recordProfile(tb testing.TB, game string, sessions int) *trace.Dataset {
	tb.Helper()
	ds := &trace.Dataset{Game: game}
	for i := 0; i < sessions; i++ {
		r, err := schemes.Profile(game, 0xA1+uint64(i), goldenSecs*units.Second)
		if err != nil {
			tb.Fatal(err)
		}
		ds.Merge(r.Dataset)
	}
	return ds
}

// digestResult hashes every output of a PFI run that the deployment
// consumes or the figures print: the selection (in canonical type
// order), every importance score, every trim-curve point and the final
// metrics. Floats are hashed by their bits, so the digest pins exact
// equality, not closeness.
func digestResult(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	s := func(v string) {
		u(uint64(len(v)))
		h.Write([]byte(v))
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	types := make([]string, 0, len(res.Selection))
	for et := range res.Selection {
		types = append(types, et)
	}
	sort.Strings(types)
	for _, et := range types {
		s(et)
		u(uint64(len(res.Selection[et])))
		for _, sf := range res.Selection[et] {
			s(sf.Name)
			u(uint64(sf.Category))
			u(uint64(sf.Size))
		}
	}
	u(uint64(len(res.Importance)))
	for _, fi := range res.Importance {
		s(fi.EventType)
		s(fi.Name)
		u(uint64(fi.Category))
		u(uint64(fi.Size))
		f(fi.Importance)
	}
	u(uint64(len(res.Curve)))
	for _, p := range res.Curve {
		u(uint64(p.SelectedBytes))
		f(p.NonTempError)
		f(p.TempError)
		f(p.Coverage)
		s(p.DroppedField)
		u(uint64(p.DroppedCategory))
		if p.Accepted {
			u(1)
		} else {
			u(0)
		}
	}
	f(res.Final.Coverage)
	f(res.Final.NonTempError)
	f(res.Final.TempError)
	f(res.Final.FieldError)
	u(uint64(res.InputBytesTotal))
	u(uint64(res.SelectedBytes))
	return h.Sum64()
}

// TestGoldenResults pins the complete PFI result of every bundled game
// at GOMAXPROCS 1 and 4, the pool size every fan-out defaults to.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("records a multi-session profile per game")
	}
	for _, game := range games.Names() {
		ds := recordProfile(t, game, goldenSessions)
		for _, workers := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(workers)
			res, err := Run(ds, DefaultConfig())
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s: %v", game, err)
			}
			if got, want := digestResult(res), goldenDigests[game]; got != want {
				t.Errorf("%s workers=%d: digest %#x, want %#x", game, workers, got, want)
			}
		}
	}
}

// The edge-case tests below pin the rules the search applies to odd
// records, each on a profile small enough to reason about by hand.

// TestDuplicateInputFirstWins: when a record carries the same input
// name twice, the model keys on the first occurrence.
func TestDuplicateInputFirstWins(t *testing.T) {
	d := &trace.Dataset{}
	for i := 0; i < 200; i++ {
		a := uint64(i % 4)
		d.Append(&trace.Record{
			EventSeq: int64(i), EventType: "ev", Instr: 100,
			Inputs: []trace.Field{
				fld("state.a", trace.InHistory, 2, a),
				fld("state.a", trace.InHistory, 2, uint64(i)*2654435761), // shadowed noise
			},
			Outputs: []trace.Field{fld("state.out", trace.OutHistory, 4, a+7)},
		})
	}
	sel := memo.Selection{"ev": {{Name: "state.a", Category: trace.InHistory, Size: 2}}}
	m := Evaluate(d, sel, 0.6)
	if m.Coverage != 1 || m.NonTempError != 0 {
		t.Fatalf("first occurrence not keyed: %+v", m)
	}
	res, err := Run(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Coverage != 1 || res.Final.NonTempError != 0 {
		t.Fatalf("Run final %+v", res.Final)
	}
}

// TestDuplicateOutputLastWins: when a training record names an output
// twice, the prediction carries the last value.
func TestDuplicateOutputLastWins(t *testing.T) {
	d := &trace.Dataset{}
	for i := 0; i < 10; i++ {
		outs := []trace.Field{fld("state.out", trace.OutHistory, 4, 2)}
		if i < 6 { // the training prefix writes 1, then 2
			outs = append([]trace.Field{fld("state.out", trace.OutHistory, 4, 1)}, outs...)
		}
		d.Append(&trace.Record{
			EventSeq: int64(i), EventType: "ev", Instr: 100,
			Inputs:  []trace.Field{fld("state.a", trace.InHistory, 2, 1)},
			Outputs: outs,
		})
	}
	sel := memo.Selection{"ev": {{Name: "state.a", Category: trace.InHistory, Size: 2}}}
	if m := Evaluate(d, sel, 0.6); m.Coverage != 1 || m.NonTempError != 0 {
		t.Fatalf("prediction did not carry the last duplicate: %+v", m)
	}
}

// TestAbsentFieldHashesAsSentinel: a record lacking a field keys as if
// the field held the absent sentinel, so it shares a row with a record
// that carries the sentinel value explicitly.
func TestAbsentFieldHashesAsSentinel(t *testing.T) {
	const sentinel = 0xdeadbeefcafef00d
	d := &trace.Dataset{}
	for i := 0; i < 10; i++ {
		in := []trace.Field{fld("state.a", trace.InHistory, 2, 3)}
		if i < 6 { // training prefix carries the sentinel explicitly
			in = append(in, fld("state.b", trace.InHistory, 2, sentinel))
		}
		d.Append(&trace.Record{
			EventSeq: int64(i), EventType: "ev", Instr: 100,
			Inputs:  in,
			Outputs: []trace.Field{fld("state.out", trace.OutHistory, 4, 9)},
		})
	}
	sel := memo.Selection{"ev": {
		{Name: "state.a", Category: trace.InHistory, Size: 2},
		{Name: "state.b", Category: trace.InHistory, Size: 2},
	}}
	if m := Evaluate(d, sel, 0.6); m.Coverage != 1 || m.NonTempError != 0 {
		t.Fatalf("absent field did not key as the sentinel: %+v", m)
	}
}

// TestSingleRecordTypeSkipped: a type with one record cannot be split
// into training and validation, so it gets no selection and no
// importance, and does not count in the final metrics.
func TestSingleRecordTypeSkipped(t *testing.T) {
	d := groundTruthProfile(200)
	d.Append(&trace.Record{
		EventSeq: 999, EventType: "lonely", Instr: 1 << 30,
		Inputs:  []trace.Field{fld("state.z", trace.InHistory, 2, 1)},
		Outputs: []trace.Field{fld("state.zo", trace.OutHistory, 4, 1)},
	})
	res, err := Run(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Selection["lonely"]; ok {
		t.Fatal("single-record type got a selection")
	}
	for _, imp := range res.Importance {
		if imp.EventType == "lonely" {
			t.Fatal("single-record type got an importance score")
		}
	}
	if res.Final != Evaluate(d, res.Selection, DefaultConfig().TrainFrac) {
		t.Fatalf("Final %+v differs from Evaluate", res.Final)
	}
	if res.Final.Coverage < 0.9 {
		t.Fatalf("lonely record's instructions counted: coverage %v", res.Final.Coverage)
	}
}

// TestEvaluateUnknownField: a selection naming a field the type never
// carried keys every record on the sentinel for it, so it behaves like
// the selection without that field.
func TestEvaluateUnknownField(t *testing.T) {
	d := groundTruthProfile(600)
	with := memo.Selection{"ev": {
		{Name: "state.a", Category: trace.InHistory, Size: 2},
		{Name: "state.b", Category: trace.InHistory, Size: 1},
		{Name: "state.never", Category: trace.InHistory, Size: 8},
	}}
	without := memo.Selection{"ev": {
		{Name: "state.a", Category: trace.InHistory, Size: 2},
		{Name: "state.b", Category: trace.InHistory, Size: 1},
	}}
	got, want := Evaluate(d, with, 0.6), Evaluate(d, without, 0.6)
	if got != want {
		t.Fatalf("unknown field changed the metrics: %+v vs %+v", got, want)
	}
	// A selection naming only unknown fields keys every record alike.
	only := memo.Selection{"ev": {{Name: "state.never", Category: trace.InHistory, Size: 8}}}
	if m := Evaluate(d, only, 0.6); m.Coverage != 1 || m.NonTempError == 0 {
		t.Fatalf("all-unknown selection: %+v", m)
	}
	// A type the selection does not mention keys on no field at all.
	if m := Evaluate(d, memo.Selection{}, 0.6); m != Evaluate(d, only, 0.6) {
		t.Fatalf("empty selection %+v differs from all-unknown %+v", m, Evaluate(d, only, 0.6))
	}
}
