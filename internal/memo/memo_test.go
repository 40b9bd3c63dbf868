package memo

import (
	"testing"
	"testing/quick"

	"snip/internal/trace"
	"snip/internal/units"
)

func fld(name string, cat trace.Category, size units.Size, val uint64) trace.Field {
	return trace.Field{Name: name, Category: cat, Size: size, Value: val}
}

func rec(seq int64, etype string, eventHash uint64, ins, outs []trace.Field) *trace.Record {
	return &trace.Record{
		EventSeq: seq, EventType: etype, EventHash: eventHash,
		Instr: 100, Inputs: ins, Outputs: outs, StateChanged: true,
	}
}

// small synthetic profile: tap events whose output depends on (x, mode).
func synthProfile(n int) *trace.Dataset {
	d := &trace.Dataset{Game: "synthetic"}
	for i := 0; i < n; i++ {
		x := uint64(i % 4)
		mode := uint64((i / 4) % 2)
		noise := uint64(i) // irrelevant high-cardinality input
		out := x*10 + mode
		d.Append(rec(int64(i), "tap", x,
			[]trace.Field{
				fld("event.tap.x", trace.InEvent, 4, x),
				fld("state.mode", trace.InHistory, 1, mode),
				fld("state.noise", trace.InHistory, 8, noise),
			},
			[]trace.Field{fld("state.out", trace.OutHistory, 4, out)}))
	}
	return d
}

func TestNaiveTableAccounting(t *testing.T) {
	d := synthProfile(100)
	nt := BuildNaive(d)
	// Every record is distinct (noise is unique) -> 100 rows.
	if nt.Rows() != 100 {
		t.Fatalf("rows %d", nt.Rows())
	}
	in, inOut := nt.RecordWidth()
	if in != 13 {
		t.Fatalf("input width %v", in)
	}
	if inOut != 17 {
		t.Fatalf("full width %v", inOut)
	}
	if nt.Size() != 100*17 {
		t.Fatalf("size %v", nt.Size())
	}
	if nt.InputOnlySize() != 100*13 {
		t.Fatalf("input-only size %v", nt.InputOnlySize())
	}
	// No repeats -> the coverage curve is empty.
	if curve := nt.CoverageCurve(d.TotalInstr()); len(curve) != 0 {
		t.Fatalf("coverage curve %v for repeat-free profile", curve)
	}
}

func TestNaiveCoverageCurve(t *testing.T) {
	d := &trace.Dataset{}
	// Two distinct records; the first repeats 3 times, the second once.
	mk := func(seq int64, x uint64) *trace.Record {
		return rec(seq, "tap", x, []trace.Field{fld("x", trace.InEvent, 4, x)}, nil)
	}
	d.Append(mk(1, 1), mk(2, 1), mk(3, 1), mk(4, 1), mk(5, 2), mk(6, 2))
	nt := BuildNaive(d)
	curve := nt.CoverageCurve(d.TotalInstr())
	if len(curve) != 2 {
		t.Fatalf("curve %v", curve)
	}
	// Best row first: 3 repeats of 100 instr out of 600 total = 0.5.
	if curve[0].Coverage != 0.5 {
		t.Fatalf("first point coverage %v", curve[0].Coverage)
	}
	if curve[1].Coverage < curve[0].Coverage {
		t.Fatal("curve not monotone")
	}
}

func TestEventOnlyTableAmbiguity(t *testing.T) {
	d := &trace.Dataset{}
	// Same event (hash 7) with two different outputs depending on hidden
	// history: the table must flag it ambiguous.
	mk := func(seq int64, out uint64) *trace.Record {
		return rec(seq, "tap", 7,
			[]trace.Field{fld("event.tap.x", trace.InEvent, 4, 7)},
			[]trace.Field{fld("state.out", trace.OutHistory, 4, out)})
	}
	d.Append(mk(1, 10), mk(2, 11), mk(3, 10), mk(4, 11))
	et := BuildEventOnly(d)
	if et.Rows() != 1 {
		t.Fatalf("rows %d", et.Rows())
	}
	st := et.Evaluate(d)
	if st.Coverage == 0 {
		t.Fatal("no coverage on repeated key")
	}
	if st.Ambiguous == 0 {
		t.Fatal("ambiguity not detected")
	}
	// Serving the first output errs on the records with output 11.
	if st.ErrHistoryFields == 0 {
		t.Fatal("history errors not counted")
	}
	if st.ErrTempFields != 0 {
		t.Fatal("phantom temp errors")
	}
}

func selection() Selection {
	return Selection{
		"tap": {
			{Name: "event.tap.x", Category: trace.InEvent, Size: 4},
			{Name: "state.mode", Category: trace.InHistory, Size: 1},
		},
	}
}

func TestSelectionWidths(t *testing.T) {
	sel := selection()
	if sel.Width("tap") != 5 {
		t.Fatalf("width %v", sel.Width("tap"))
	}
	if sel.StateWidth("tap") != 1 {
		t.Fatalf("state width %v", sel.StateWidth("tap"))
	}
	if sel.TotalWidth() != 5 {
		t.Fatalf("total width %v", sel.TotalWidth())
	}
	cb := sel.CategoryBytes()
	if cb[trace.InEvent] != 4 || cb[trace.InHistory] != 1 {
		t.Fatalf("category bytes %v", cb)
	}
	if sel.String() == "" {
		t.Fatal("empty selection string")
	}
}

func TestSnipTableHitAndMiss(t *testing.T) {
	d := synthProfile(64)
	sel := selection()
	table := BuildSnip(d, sel)
	// 4 x values × 2 modes = 8 distinct keys.
	if table.Rows() != 8 {
		t.Fatalf("rows %d", table.Rows())
	}
	// Lookup with matching values hits and returns the right outputs.
	resolve := func(x, mode uint64) Resolver {
		return func(name string) (uint64, bool) {
			switch name {
			case "event.tap.x":
				return x, true
			case "state.mode":
				return mode, true
			}
			return 0, false
		}
	}
	var st LookupStats
	e, probes, cmp, ok := table.Lookup("tap", resolve(2, 1))
	st.Observe(probes, cmp, ok)
	if !ok {
		t.Fatal("expected hit")
	}
	if probes < 1 || cmp < 1 {
		t.Fatalf("probes %d cmp %v", probes, cmp)
	}
	if got, _ := outVal(e.AppendOutputs(nil), "state.out"); got != 21 {
		t.Fatalf("served output %d, want 21", got)
	}
	// Unseen mode misses.
	if _, p2, c2, ok := table.Lookup("tap", resolve(2, 9)); ok {
		t.Fatal("phantom hit")
	} else {
		st.Observe(p2, c2, ok)
	}
	// Unknown event type misses cleanly.
	if _, p3, c3, ok := table.Lookup("vsync", resolve(0, 0)); ok {
		t.Fatal("hit on unknown type")
	} else {
		st.Observe(p3, c3, ok)
	}
	if st.Lookups != 3 || st.Hits != 1 || st.Probes < 2 || st.ComparedBytes < 1 {
		t.Fatalf("stats %+v", st)
	}
	if hr := st.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate %v", hr)
	}
	var agg LookupStats
	agg.Merge(st)
	agg.Merge(st)
	if agg.Lookups != 6 || agg.Hits != 2 {
		t.Fatalf("merge %+v", agg)
	}
}

func TestSnipTableFreeze(t *testing.T) {
	table := BuildSnip(synthProfile(16), selection())
	table.Freeze()
	if !table.Frozen() {
		t.Fatal("Freeze did not stick")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert on a frozen table did not panic")
		}
	}()
	table.Insert(rec(99, "tap", 1,
		[]trace.Field{fld("event.tap.x", trace.InEvent, 4, 1)}, nil))
}

func outVal(fs []trace.Field, name string) (uint64, bool) {
	for _, f := range fs {
		if f.Name == name {
			return f.Value, true
		}
	}
	return 0, false
}

func TestSnipTableConflicts(t *testing.T) {
	d := &trace.Dataset{}
	// Identical selected inputs, different outputs (insufficient
	// selection): first wins, conflict counted.
	mk := func(seq int64, noise, out uint64) *trace.Record {
		return rec(seq, "tap", 1,
			[]trace.Field{
				fld("event.tap.x", trace.InEvent, 4, 1),
				fld("state.mode", trace.InHistory, 1, 0),
				fld("state.noise", trace.InHistory, 8, noise),
			},
			[]trace.Field{fld("state.out", trace.OutHistory, 4, out)})
	}
	d.Append(mk(1, 100, 5), mk(2, 200, 6))
	table := BuildSnip(d, selection())
	if table.Rows() != 1 {
		t.Fatalf("rows %d", table.Rows())
	}
	if table.Conflicts() != 1 {
		t.Fatalf("conflicts %d", table.Conflicts())
	}
}

func TestSnipTableProbeAccounting(t *testing.T) {
	// All-state selection: one bucket; later entries need more probes.
	sel := Selection{"vsync": {{Name: "state.k", Category: trace.InHistory, Size: 2}}}
	d := &trace.Dataset{}
	for i := 0; i < 10; i++ {
		d.Append(rec(int64(i), "vsync", 0,
			[]trace.Field{fld("state.k", trace.InHistory, 2, uint64(i))},
			[]trace.Field{fld("state.k", trace.OutHistory, 2, uint64(i+1))}))
	}
	table := BuildSnip(d, sel)
	if table.Buckets() != 1 {
		t.Fatalf("buckets %d", table.Buckets())
	}
	if table.MaxBucket() != 10 {
		t.Fatalf("max bucket %d", table.MaxBucket())
	}
	look := func(k uint64) int64 {
		_, probes, _, ok := table.Lookup("vsync", func(string) (uint64, bool) { return k, true })
		if !ok {
			t.Fatalf("miss for %d", k)
		}
		return probes
	}
	if look(0) != 1 {
		t.Fatal("first entry should need one probe")
	}
	if look(9) != 10 {
		t.Fatalf("last entry probes %d, want 10", look(9))
	}
	// A miss scans the whole bucket.
	_, probes, cmp, ok := table.Lookup("vsync", func(string) (uint64, bool) { return 99, true })
	if ok || probes != 10 || cmp != 20 {
		t.Fatalf("miss probes=%d cmp=%v ok=%v", probes, cmp, ok)
	}
}

func TestSnipTableSizePositive(t *testing.T) {
	table := BuildSnip(synthProfile(32), selection())
	if table.Size() <= 0 {
		t.Fatal("zero table size")
	}
}

// Property: a record inserted into the table is always found again when
// its selected inputs resolve to the recorded values.
func TestInsertLookupProperty(t *testing.T) {
	sel := selection()
	f := func(x, mode uint8, noise uint64) bool {
		r := rec(1, "tap", uint64(x),
			[]trace.Field{
				fld("event.tap.x", trace.InEvent, 4, uint64(x)),
				fld("state.mode", trace.InHistory, 1, uint64(mode)),
				fld("state.noise", trace.InHistory, 8, noise),
			},
			[]trace.Field{fld("state.out", trace.OutHistory, 4, uint64(x)+uint64(mode))})
		table := NewSnipTable(sel)
		table.Insert(r)
		_, _, _, ok := table.Lookup("tap", func(name string) (uint64, bool) {
			switch name {
			case "event.tap.x":
				return uint64(x), true
			case "state.mode":
				return uint64(mode), true
			}
			return 0, false
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
