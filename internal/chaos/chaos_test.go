package chaos

import (
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"snip/internal/memo"
	"snip/internal/sensors"
	"snip/internal/trace"
	"snip/internal/units"
)

func testStream(t *testing.T, n int) *sensors.Stream {
	t.Helper()
	s := &sensors.Stream{}
	for i := 0; i < n; i++ {
		err := s.Append(sensors.Reading{
			Sensor: sensors.Touch, Time: units.Time(1000 * (i + 1)),
			Values: []int64{int64(i), int64(i * 2)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// testTable is a 20-row table, one output per row, in the flat form
// the fleet serves and MaybePoisonTable takes.
func testTable(t *testing.T) *memo.FlatTable {
	t.Helper()
	// One selected input field, so distinct input values hash to distinct
	// rows (an empty selection would collapse every insert into one row).
	sel := memo.Selection{"touch": {{Name: "pos", Category: trace.InEvent, Size: 8}}}
	sel.Canonicalize()
	tab := memo.NewSnipTable(sel)
	for i := uint64(1); i <= 20; i++ {
		tab.Insert(&trace.Record{
			EventType: "touch", EventHash: i,
			Inputs:  []trace.Field{{Name: "pos", Category: trace.InEvent, Size: 8, Value: i}},
			Outputs: []trace.Field{{Name: "x", Category: trace.OutHistory, Size: 8, Value: i * 100}},
		})
	}
	flat, err := memo.Flatten(tab)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Rows() != 20 {
		t.Fatalf("test table has %d rows, want 20", flat.Rows())
	}
	return flat
}

func TestNamedProfiles(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if name == "off" && p.Enabled() {
			t.Fatal("off profile enabled")
		}
		if name != "off" && !p.Enabled() {
			t.Fatalf("profile %q injects nothing", name)
		}
	}
	if p, err := Named(""); err != nil || p.Name != "off" {
		t.Fatalf("empty name: %+v, %v", p, err)
	}
	if p, err := Named(" ALL "); err != nil || p.Name != "all" {
		t.Fatalf("case/space folding: %+v, %v", p, err)
	}
	if _, err := Named("tornado"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestNilInjectorSafe: a nil *Injector is the "no chaos" value every
// call site passes through — all methods must be no-ops on it.
func TestNilInjectorSafe(t *testing.T) {
	var i *Injector
	if crash, stall := i.SessionFaults(1, 2); crash || stall != 0 {
		t.Fatal("nil injector dealt a device fault")
	}
	s := testStream(t, 5)
	if got := i.PerturbStream(9, s); got != s {
		t.Fatal("nil injector did not pass the stream through")
	}
	tab := testTable(t)
	if got, n := i.MaybePoisonTable(tab); got != tab || n != 0 {
		t.Fatal("nil injector poisoned a table")
	}
	if tr := i.Transport(nil); tr != nil {
		t.Fatal("nil injector wrapped a transport")
	}
	if c := i.Counts(); c.Total() != 0 {
		t.Fatal("nil injector counted faults")
	}
	if i.Profile().Name != "off" {
		t.Fatal("nil injector profile not off")
	}
	i.SetMetrics(nil)
}

// TestPerturbStreamDeterministic: same profile seed and session seed →
// byte-identical perturbed stream; different session seed → a different
// one (the faults are per-session, not global).
func TestPerturbStreamDeterministic(t *testing.T) {
	p := Profile{
		Seed:           42,
		SensorDropRate: 0.2, SensorDupRate: 0.2,
		SensorStuckRate: 0.1, SensorOutOfOrderRate: 0.1,
	}
	in := testStream(t, 200)
	a := New(p).PerturbStream(7, in)
	b := New(p).PerturbStream(7, in)
	if !reflect.DeepEqual(a.All(), b.All()) {
		t.Fatal("same seeds produced different perturbed streams")
	}
	c := New(p).PerturbStream(8, in)
	if reflect.DeepEqual(a.All(), c.All()) {
		t.Fatal("different session seeds produced identical perturbations")
	}
	// The input stream is never modified.
	if in.Len() != 200 {
		t.Fatalf("input stream mutated: len %d", in.Len())
	}
	// The perturbed stream must still be a legal stream (time-ordered):
	// re-appending into a fresh stream must never error.
	check := &sensors.Stream{}
	for _, r := range a.All() {
		if err := check.Append(r); err != nil {
			t.Fatalf("perturbed stream is not time-ordered: %v", err)
		}
	}
	counts := New(p).Counts()
	if counts.Total() != 0 {
		t.Fatal("fresh injector has non-zero counts")
	}
}

// TestSessionFaultsDeterministic: the fault for a (device, session) slot
// is a pure function of the profile seed — scheduling cannot move it.
func TestSessionFaultsDeterministic(t *testing.T) {
	p := Profile{Seed: 42, DeviceCrashRate: 0.3, DeviceStallRate: 0.3, DeviceStall: time.Millisecond}
	type fault struct {
		crash bool
		stall time.Duration
	}
	draw := func() map[[2]int]fault {
		i := New(p)
		m := make(map[[2]int]fault)
		for d := 0; d < 8; d++ {
			for s := 0; s < 4; s++ {
				c, st := i.SessionFaults(d, s)
				m[[2]int{d, s}] = fault{c, st}
			}
		}
		return m
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("device faults depend on something besides the seed")
	}
	crashes := 0
	for _, f := range a {
		if f.crash {
			crashes++
		}
	}
	if crashes == 0 || crashes == len(a) {
		t.Fatalf("crash rate 0.3 dealt %d/%d crashes; the stream looks broken", crashes, len(a))
	}
}

// TestMaybePoisonTableDeterministic: poisoning is a pure function of
// (profile seed, table fingerprint), never mutates its input, and at
// rate 1.0 corrupts every entry that has outputs.
func TestMaybePoisonTableDeterministic(t *testing.T) {
	tab := testTable(t)
	origFP := tab.Fingerprint()

	p := Profile{Seed: 42, TablePoisonRate: 0.5}
	a, na := New(p).MaybePoisonTable(tab)
	b, nb := New(p).MaybePoisonTable(tab)
	if na != nb || a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("poisoning not deterministic: %d/%d entries, fp equal=%v", na, nb, a.Fingerprint() == b.Fingerprint())
	}
	if na == 0 || na == 20 {
		t.Fatalf("rate 0.5 poisoned %d/20 entries; selection looks broken", na)
	}
	if tab.Fingerprint() != origFP {
		t.Fatal("input table mutated")
	}
	if a.Fingerprint() == origFP {
		t.Fatal("poisoned copy has the original fingerprint")
	}

	full, nf := New(Profile{Seed: 42, TablePoisonRate: 1.0}).MaybePoisonTable(tab)
	if nf != 20 {
		t.Fatalf("rate 1.0 poisoned %d/20 entries", nf)
	}
	if full.Rows() != tab.Rows() {
		t.Fatalf("poisoning changed the row count: %d vs %d", full.Rows(), tab.Rows())
	}

	if same, n := New(Profile{Seed: 42}).MaybePoisonTable(tab); same != tab || n != 0 {
		t.Fatal("zero rate still copied or poisoned the table")
	}
}

// TestPoisonedImageBytes pins the poisoned images of testTable. The
// values were recorded when poisoning still rebuilt the table through
// its map form and re-flattened it; poisoning the image itself must
// give the same bytes.
func TestPoisonedImageBytes(t *testing.T) {
	tab := testTable(t)
	const srcCRC = 0x64cbeeda
	for _, tc := range []struct {
		rate float64
		n    int
		crc  uint32
		fp   uint64
	}{
		{0.5, 9, 0x2e394340, 799219740709015910},
		{1.0, 20, 0x5a71d46e, 11238232901032824199},
	} {
		got, n := New(Profile{Seed: 42, TablePoisonRate: tc.rate}).MaybePoisonTable(tab)
		if n != tc.n || got.ArenaCRC() != tc.crc {
			t.Errorf("rate %v: %d entries, arena CRC %#08x; want %d, %#08x", tc.rate, n, got.ArenaCRC(), tc.n, tc.crc)
		}
		if got.Fingerprint() != tc.fp {
			t.Errorf("rate %v: fingerprint %d, want %d", tc.rate, got.Fingerprint(), tc.fp)
		}
	}
	if tab.ArenaCRC() != srcCRC || crc32.ChecksumIEEE(tab.Image()[64:]) != srcCRC {
		t.Fatalf("source image changed: arena CRC %#08x, want %#08x", crc32.ChecksumIEEE(tab.Image()[64:]), srcCRC)
	}
}

// TestCountsMap: the JSON-friendly map carries exactly the non-zero
// tallies.
func TestCountsMap(t *testing.T) {
	c := Counts{SensorDropped: 3, WireBombs: 1}
	m := c.Map()
	if len(m) != 2 || m["sensor_dropped"] != 3 || m["wire_bombs"] != 1 {
		t.Fatalf("map %v", m)
	}
	if c.Total() != 4 {
		t.Fatalf("total %d, want 4", c.Total())
	}
}
