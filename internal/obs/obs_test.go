package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_ns", "", NanoBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	// All of these must be no-ops, not panics.
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Inc()
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles reported values")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry wrote output")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("snip_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d", c.Value())
	}
	if r.Counter("snip_test_total", "ignored") != c {
		t.Fatal("re-registration returned a new handle")
	}
	g := r.Gauge("snip_depth", "a gauge")
	g.Set(7)
	g.Add(-1)
	if g.Value() != 6 {
		t.Fatalf("gauge %d", g.Value())
	}
	h := r.Histogram("snip_lat_ns", "a histogram", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5126 {
		t.Fatalf("histogram count=%d sum=%d", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	hs := snap.Histograms["snip_lat_ns"]
	want := []int64{2, 2, 0, 1} // <=10: {5,10}; <=100: {11,100}; <=1000: none; +Inf: {5000}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("snip_thing_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind collision did not panic")
		}
	}()
	r.Gauge("snip_thing_total", "")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`snip_memo_lookups_total{table="snip"}`, "lookups").Add(3)
	r.Counter(`snip_memo_lookups_total{table="naive"}`, "lookups").Add(1)
	r.Gauge("snip_workers", "pool size").Set(8)
	h := r.Histogram(`snip_lat_ns{table="snip"}`, "latency", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE snip_memo_lookups_total counter",
		"# HELP snip_memo_lookups_total lookups",
		`snip_memo_lookups_total{table="snip"} 3`,
		`snip_memo_lookups_total{table="naive"} 1`,
		"# TYPE snip_workers gauge",
		"snip_workers 8",
		"# TYPE snip_lat_ns histogram",
		`snip_lat_ns_bucket{table="snip",le="10"} 1`,
		`snip_lat_ns_bucket{table="snip",le="100"} 2`,
		`snip_lat_ns_bucket{table="snip",le="+Inf"} 3`,
		`snip_lat_ns_sum{table="snip"} 555`,
		`snip_lat_ns_count{table="snip"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE once per family even with two label sets.
	if strings.Count(out, "# TYPE snip_memo_lookups_total") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
	// Deterministic: a second write is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("exposition not deterministic")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("snip_a_total", "").Add(2)
	r.Gauge("snip_b", "").Set(-3)
	r.Histogram("snip_c_ns", "", []int64{1}).Observe(9)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["snip_a_total"] != 2 || snap.Gauges["snip_b"] != -3 {
		t.Fatalf("snapshot %+v", snap)
	}
	if h := snap.Histograms["snip_c_ns"]; h.Count != 1 || h.Sum != 9 {
		t.Fatalf("histogram snapshot %+v", h)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("snip_conc_total", "")
	h := r.Histogram("snip_conc_ns", "", NanoBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter=%d histogram=%d", c.Value(), h.Count())
	}
}
