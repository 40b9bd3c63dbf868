package energy

import (
	"math"
	"strings"
	"testing"

	"snip/internal/units"
)

func TestComponentNamesAndGroups(t *testing.T) {
	if len(Components()) != NumComponents {
		t.Fatal("Components() length mismatch")
	}
	for _, c := range Components() {
		if strings.HasPrefix(c.String(), "Component(") {
			t.Fatalf("component %d has no name", int(c))
		}
	}
	if GroupOf(CPU) != GroupCPU || GroupOf(Memory) != GroupMemory || GroupOf(Sensors) != GroupSensors {
		t.Fatal("basic group mapping broken")
	}
	for _, ip := range []Component{GPU, Display, VideoCodec, AudioCodec, ISP, DSP, SensorHub, Network} {
		if GroupOf(ip) != GroupIPs {
			t.Fatalf("%v should be in IPs group", ip)
		}
	}
}

func TestDefaultPowerModelOrdering(t *testing.T) {
	m := DefaultPowerModel()
	for _, c := range Components() {
		active, idle, sleep := m.Draw(c, Active), m.Draw(c, Idle), m.Draw(c, Sleep)
		if !(active > idle && idle > sleep && sleep >= 0) {
			t.Fatalf("%v power states not ordered: %v %v %v", c, active, idle, sleep)
		}
	}
	// The CPU and GPU dominate active power, as on a real SoC.
	if m.Draw(CPU, Active) < m.Draw(SensorHub, Active)*10 {
		t.Fatal("CPU active power implausibly low")
	}
}

func TestMeterAccrual(t *testing.T) {
	m := NewMeter()
	e := m.Accrue(CPU, Active, units.Second)
	want := units.EnergyOf(m.Model().Draw(CPU, Active), units.Second)
	if e != want {
		t.Fatalf("accrued %v, want %v", e, want)
	}
	if m.Energy(CPU) != e || m.Total() != e {
		t.Fatal("meter totals wrong")
	}
	if m.BusyTime(CPU) != units.Second {
		t.Fatalf("busy time %v", m.BusyTime(CPU))
	}
	m.Accrue(CPU, Idle, units.Second)
	if m.BusyTime(CPU) != units.Second {
		t.Fatal("idle time counted as busy")
	}
}

func TestMeterNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative duration")
		}
	}()
	NewMeter().Accrue(CPU, Active, -1)
}

func TestGroupTotalsAndBreakdown(t *testing.T) {
	m := NewMeter()
	m.Accrue(CPU, Active, units.Second)
	m.Accrue(GPU, Active, units.Second)
	m.Accrue(Memory, Active, units.Second)
	m.Accrue(Sensors, Active, units.Second)
	g := m.GroupTotals()
	var sum units.Energy
	for _, e := range g {
		sum += e
	}
	if math.Abs(float64(sum-m.Total())) > 1e-6 {
		t.Fatalf("group totals %v != total %v", sum, m.Total())
	}
	b := m.Breakdown()
	var fsum float64
	for _, f := range b {
		if f < 0 || f > 1 {
			t.Fatalf("breakdown fraction %v out of range", f)
		}
		fsum += f
	}
	if math.Abs(fsum-1) > 1e-9 {
		t.Fatalf("breakdown sums to %v", fsum)
	}
}

func TestBreakdownEmptyMeter(t *testing.T) {
	b := NewMeter().Breakdown()
	for _, f := range b {
		if f != 0 {
			t.Fatal("empty meter breakdown should be zeros")
		}
	}
}

func TestBatteryHoursToDrain(t *testing.T) {
	b := DefaultBattery()
	// Draw exactly 1 W: capacity 47196 J -> 13.1 h.
	consumed := units.EnergyOf(units.Watt, units.Second)
	h := b.HoursToDrain(consumed, units.Second)
	if math.Abs(h-13.11) > 0.05 {
		t.Fatalf("1W drains in %v h, want ≈13.1", h)
	}
	// Half the power, double the hours.
	h2 := b.HoursToDrain(consumed/2, units.Second)
	if math.Abs(h2-2*h) > 0.01 {
		t.Fatalf("halving power: %v vs %v", h2, h)
	}
	if b.HoursToDrain(0, units.Second) != 0 || b.HoursToDrain(consumed, 0) != 0 {
		t.Fatal("degenerate drain should be 0")
	}
}

func TestStateStrings(t *testing.T) {
	if Active.String() != "active" || Idle.String() != "idle" || Sleep.String() != "sleep" {
		t.Fatal("state names wrong")
	}
	for g := Group(0); int(g) < NumGroups; g++ {
		if strings.HasPrefix(g.String(), "Group(") {
			t.Fatalf("group %d unnamed", int(g))
		}
	}
}
