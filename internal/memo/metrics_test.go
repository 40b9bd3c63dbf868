package memo

import (
	"testing"

	"snip/internal/obs"
	"snip/internal/trace"
)

// TestSnipTableMetrics checks that the instrumented lookup path reports
// exactly the same results as the bare one and that the counters agree
// with a caller-owned LookupStats accumulation.
func TestSnipTableMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewTableMetrics(reg, "snip")

	bare := benchTable(256)
	inst := benchTable(256)
	inst.SetMetrics(m)

	var st LookupStats
	for i := 0; i < 512; i++ {
		r := hitResolver(i) // i >= 256 resolves values never inserted... or recurring
		e1, p1, c1, ok1 := bare.Lookup("tap", r)
		e2, p2, c2, ok2 := inst.Lookup("tap", r)
		if ok1 != ok2 || p1 != p2 || c1 != c2 {
			t.Fatalf("i=%d: instrumented lookup diverged: (%v %d %d) vs (%v %d %d)", i, ok1, p1, c1, ok2, p2, c2)
		}
		if ok1 && (e1.StateKey() != e2.StateKey()) {
			t.Fatalf("i=%d: different entries", i)
		}
		st.Observe(p1, c1, ok1)
	}
	if m.Lookups.Value() != 512 || m.Hits.Value() != st.Hits || m.Misses.Value() != st.Lookups-st.Hits {
		t.Fatalf("counters lookups=%d hits=%d misses=%d, want 512/%d/%d",
			m.Lookups.Value(), m.Hits.Value(), m.Misses.Value(), st.Hits, st.Lookups-st.Hits)
	}
	if m.LookupNS.Count() != 512 {
		t.Fatalf("latency histogram has %d observations", m.LookupNS.Count())
	}
	if st.Lookups != m.Lookups.Value() || st.Hits != m.Hits.Value() {
		t.Fatalf("caller stats (%d,%d) disagree with metrics (%d,%d)", st.Lookups, st.Hits, m.Lookups.Value(), m.Hits.Value())
	}
	if m.Evictions.Value() != 0 {
		t.Fatal("evictions counted but no eviction policy exists")
	}
}

func TestSnipTableInsertMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tab := NewSnipTable(benchSelection())
	tab.SetMetrics(NewTableMetrics(reg, "snip"))
	rec := func(x, out uint64) *trace.Record {
		return &trace.Record{
			EventType: "tap", Instr: 10, Inputs: []trace.Field{
				{Name: "event.tap.x", Category: trace.InEvent, Size: 4, Value: x},
			},
			Outputs: []trace.Field{{Name: "state.out", Category: trace.OutHistory, Size: 4, Value: out}},
		}
	}
	tab.Insert(rec(1, 1))
	tab.Insert(rec(2, 2))
	tab.Insert(rec(1, 1)) // duplicate, same outputs: neither insert nor conflict
	tab.Insert(rec(1, 9)) // same key, different outputs: conflict
	m := tab.metrics
	if m.Inserts.Value() != 2 || m.Conflicts.Value() != 1 {
		t.Fatalf("inserts=%d conflicts=%d, want 2/1", m.Inserts.Value(), m.Conflicts.Value())
	}
	if tab.Conflicts() != m.Conflicts.Value() {
		t.Fatal("conflict counter disagrees with Conflicts()")
	}
}

// TestBuildObservedMatchesBare pins that the observed build variants
// construct byte-identical tables and count sensible totals.
func TestBuildObservedMatchesBare(t *testing.T) {
	d := synthProfile(512)
	reg := obs.NewRegistry()

	nm := NewTableMetrics(reg, "naive")
	naive := BuildNaiveObserved(d, nm)
	bareNaive := BuildNaive(d)
	if naive.Rows() != bareNaive.Rows() || naive.Size() != bareNaive.Size() {
		t.Fatal("observed naive build differs from bare build")
	}
	if nm.Lookups.Value() != int64(d.Len()) {
		t.Fatalf("naive lookups %d, want %d", nm.Lookups.Value(), d.Len())
	}
	if nm.Inserts.Value() != int64(naive.Rows()) {
		t.Fatalf("naive inserts %d, want %d rows", nm.Inserts.Value(), naive.Rows())
	}
	if nm.Hits.Value()+nm.Misses.Value() != nm.Lookups.Value() {
		t.Fatal("naive hits+misses != lookups")
	}

	em := NewTableMetrics(reg, "eventonly")
	ev := BuildEventOnlyObserved(d, em)
	bareEv := BuildEventOnly(d)
	if ev.Rows() != bareEv.Rows() || ev.Size() != bareEv.Size() {
		t.Fatal("observed event-only build differs from bare build")
	}
	if em.Inserts.Value() != int64(ev.Rows()) {
		t.Fatalf("eventonly inserts %d, want %d rows", em.Inserts.Value(), ev.Rows())
	}
	st := ev.Evaluate(d)
	bareSt := bareEv.Evaluate(d)
	if st != bareSt {
		t.Fatalf("instrumented Evaluate diverged: %+v vs %+v", st, bareSt)
	}
	if em.Lookups.Value() != int64(d.Len()) {
		t.Fatalf("eventonly lookups %d, want %d", em.Lookups.Value(), d.Len())
	}
}
