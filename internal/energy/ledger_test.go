package energy

import (
	"math"
	"testing"

	"snip/internal/units"
)

func testRates() Rates { return NewRates(2150, 1.8, 9000) }

func TestRatesDerivation(t *testing.T) {
	r := testRates()
	pm := DefaultPowerModel()

	// One instruction at 2150 MHz × 1.8 IPC occupies 1/3870 µs of a
	// 3000 mW core.
	wantInstr := float64(units.EnergyOf(pm.Draw(CPU, Active), units.Microsecond)) / (2150 * 1.8)
	if math.Abs(r.PerInstrUJ-wantInstr) > 1e-15 {
		t.Fatalf("PerInstrUJ = %g, want %g", r.PerInstrUJ, wantInstr)
	}
	wantByte := float64(units.EnergyOf(pm.Draw(Memory, Active), units.Microsecond)) / 9000
	if math.Abs(r.PerByteUJ-wantByte) > 1e-15 {
		t.Fatalf("PerByteUJ = %g, want %g", r.PerByteUJ, wantByte)
	}
	for c := Component(0); int(c) < NumComponents; c++ {
		want := float64(units.EnergyOf(pm.Draw(c, Active), units.Microsecond))
		if r.BusyPerUSUJ[c] != want {
			t.Fatalf("BusyPerUSUJ[%s] = %g, want %g", c, r.BusyPerUSUJ[c], want)
		}
	}

	// Degenerate parameters must not divide by zero.
	z := NewRates(0, 0, 0)
	if z.PerInstrUJ != 0 || z.PerByteUJ != 0 {
		t.Fatalf("zero-parameter rates = %+v, want zero conversion factors", z)
	}
}

func TestLedgerConservation(t *testing.T) {
	l := NewLedger(testRates())
	l.NoteEvent()
	cpu := l.ChargeInstr(20000)
	mem := l.ChargeMemBytes(4096)
	hub := l.ChargeBusy(SensorHub, 12*units.Microsecond)
	sns := l.ChargeBusy(Sensors, 12*units.Microsecond)
	gpu := l.ChargeBusy(GPU, 40*units.Microsecond)

	g := l.Groups()
	if g[GroupCPU] != cpu || g[GroupMemory] != mem || g[GroupSensors] != sns {
		t.Fatalf("group routing wrong: %+v", g)
	}
	if g[GroupIPs] != hub+gpu {
		t.Fatalf("IPs group = %v, want %v", g[GroupIPs], hub+gpu)
	}
	var sum units.Energy
	for _, e := range g {
		sum += e
	}
	if math.Abs(float64(sum-l.Total())) > 1e-9 {
		t.Fatalf("group sum %v != total %v", sum, l.Total())
	}
	if l.PerEvent() != float64(l.Total()) {
		t.Fatalf("PerEvent = %g with 1 event, want %g", l.PerEvent(), float64(l.Total()))
	}
}

func TestLedgerCauses(t *testing.T) {
	l := NewLedger(testRates())
	e := l.ChargeInstr(2000)
	l.Attribute(CauseLookupOverhead, e)
	l.Attribute(CauseShortCircuitSaved, l.InstrEnergy(50000))

	if l.CauseTotal(CauseLookupOverhead) != e {
		t.Fatalf("lookup bucket = %v, want %v", l.CauseTotal(CauseLookupOverhead), e)
	}
	// The credit bucket must not inflate the spent total.
	if l.Total() != e {
		t.Fatalf("total = %v after credit, want %v (credits are not spend)", l.Total(), e)
	}
	if l.CauseTotal(CauseShortCircuitSaved) != l.InstrEnergy(50000) {
		t.Fatalf("credit bucket = %v", l.CauseTotal(CauseShortCircuitSaved))
	}

	l.Reset()
	if l.Total() != 0 || l.CauseTotal(CauseLookupOverhead) != 0 || l.Events() != 0 {
		t.Fatal("Reset left residue")
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.NoteEvent()
	if e := l.ChargeInstr(100); e != 0 {
		t.Fatalf("nil ChargeInstr = %v", e)
	}
	if e := l.ChargeMemBytes(100); e != 0 {
		t.Fatalf("nil ChargeMemBytes = %v", e)
	}
	if e := l.ChargeBusy(GPU, units.Second); e != 0 {
		t.Fatalf("nil ChargeBusy = %v", e)
	}
	l.Attribute(CauseShadowVerify, 1)
	l.Reset()
	if l.Total() != 0 || l.Events() != 0 || l.PerEvent() != 0 {
		t.Fatal("nil ledger reported nonzero totals")
	}
	if g := l.Groups(); g != ([NumGroups]units.Energy{}) {
		t.Fatalf("nil Groups = %v", g)
	}
}

func TestCauseString(t *testing.T) {
	want := map[Cause]string{
		CauseLookupOverhead:    "lookup-overhead",
		CauseShadowVerify:      "shadow-verify",
		CauseShortCircuitSaved: "short-circuit-saved",
		CauseWastedRedundant:   "wasted-on-redundant",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if Cause(99).String() != "Cause(99)" {
		t.Fatalf("out-of-range = %q", Cause(99).String())
	}
}

// The fleet charges every handled event through these methods; the ci.sh
// allocation gate pins them at 0 allocs/op.

func BenchmarkLedgerEventCharge(b *testing.B) {
	l := NewLedger(testRates())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.NoteEvent()
		l.ChargeInstr(18000)
		l.ChargeMemBytes(512)
		l.ChargeBusy(SensorHub, 12*units.Microsecond)
	}
}

func BenchmarkLedgerAttribute(b *testing.B) {
	l := NewLedger(testRates())
	e := l.InstrEnergy(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Attribute(CauseLookupOverhead, e)
		l.Attribute(CauseShortCircuitSaved, e)
	}
}
