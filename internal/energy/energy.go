// Package energy implements the power and energy accounting layer of the
// SoC simulator: per-component power models with active/idle/sleep states,
// an energy meter that integrates power over simulated time, and a battery
// model used to reproduce the paper's battery-drain characterization
// (Fig. 3: an idle phone lasts ≈20 h, Race Kings drains it in ≈3 h).
package energy

import (
	"fmt"

	"snip/internal/units"
)

// Component identifies one energy-consuming block of the simulated SoC.
type Component int

// The components modeled after the paper's Pixel XL / Snapdragon 821
// testbed. The paper groups them as sensors, memory, CPU and IPs (GPU,
// display, codecs, ISP, DSP, sensor hub).
const (
	CPU Component = iota
	GPU
	Display
	VideoCodec
	AudioCodec
	ISP // camera image signal processor
	DSP
	SensorHub
	Memory
	Sensors
	Network
	numComponents
)

// NumComponents is the number of modeled components.
const NumComponents = int(numComponents)

var componentNames = [...]string{
	CPU:        "CPU",
	GPU:        "GPU",
	Display:    "Display",
	VideoCodec: "VideoCodec",
	AudioCodec: "AudioCodec",
	ISP:        "ISP",
	DSP:        "DSP",
	SensorHub:  "SensorHub",
	Memory:     "Memory",
	Sensors:    "Sensors",
	Network:    "Network",
}

// String returns the component name.
func (c Component) String() string {
	if c < 0 || int(c) >= NumComponents {
		return fmt.Sprintf("Component(%d)", int(c))
	}
	return componentNames[c]
}

// Components returns all modeled components in declaration order.
func Components() []Component {
	out := make([]Component, NumComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Group is the paper's four-way grouping used in Fig. 2.
type Group int

// The Fig. 2 groups.
const (
	GroupSensors Group = iota
	GroupMemory
	GroupCPU
	GroupIPs
	numGroups
)

// NumGroups is the number of Fig. 2 groups.
const NumGroups = int(numGroups)

// String returns the group name.
func (g Group) String() string {
	switch g {
	case GroupSensors:
		return "Sensors"
	case GroupMemory:
		return "Memory"
	case GroupCPU:
		return "CPU"
	case GroupIPs:
		return "IPs"
	}
	return fmt.Sprintf("Group(%d)", int(g))
}

// GroupOf maps a component to its Fig. 2 group. The sensor hub is counted
// with the IPs, matching the paper's description of the hub as an IP block.
func GroupOf(c Component) Group {
	switch c {
	case Sensors:
		return GroupSensors
	case Memory:
		return GroupMemory
	case CPU:
		return GroupCPU
	default:
		return GroupIPs
	}
}

// State is a component power state.
type State int

// Power states. Active means the component is doing work; Idle means
// powered but quiescent (clock-gated); Sleep means power-collapsed, as
// exploited by the Max IP baseline (prior work [43] in the paper).
const (
	Active State = iota
	Idle
	Sleep
	numStates
)

// NumStates is the number of power states.
const NumStates = int(numStates)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Idle:
		return "idle"
	case Sleep:
		return "sleep"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// PowerModel gives the power draw of every component in every state.
type PowerModel struct {
	draw [numComponents][numStates]units.Power
}

// Set assigns the draw of component c in state s.
func (m *PowerModel) Set(c Component, s State, p units.Power) { m.draw[c][s] = p }

// Draw returns the draw of component c in state s.
func (m *PowerModel) Draw(c Component, s State) units.Power { return m.draw[c][s] }

// DefaultPowerModel returns a power model calibrated to a Snapdragon-821
// class SoC. The absolute numbers are representative (derived from public
// Trepn-style component measurements); what matters for the reproduction
// is the ratio structure: CPU and IPs dominate roughly equally, while
// sensors and memory stay below 10% of total (paper Fig. 2).
func DefaultPowerModel() *PowerModel {
	m := &PowerModel{}
	set := func(c Component, active, idle, sleep units.Power) {
		m.Set(c, Active, active)
		m.Set(c, Idle, idle)
		m.Set(c, Sleep, sleep)
	}
	//                 active                 idle                 sleep
	set(CPU, 3000*units.Milliwatt, 120*units.Milliwatt, 12*units.Milliwatt)
	set(GPU, 1400*units.Milliwatt, 90*units.Milliwatt, 6*units.Milliwatt)
	set(Display, 480*units.Milliwatt, 180*units.Milliwatt, 1*units.Milliwatt)
	set(VideoCodec, 320*units.Milliwatt, 35*units.Milliwatt, 2*units.Milliwatt)
	set(AudioCodec, 110*units.Milliwatt, 18*units.Milliwatt, 1*units.Milliwatt)
	set(ISP, 1150*units.Milliwatt, 55*units.Milliwatt, 3*units.Milliwatt)
	set(DSP, 260*units.Milliwatt, 28*units.Milliwatt, 2*units.Milliwatt)
	set(SensorHub, 45*units.Milliwatt, 8*units.Milliwatt, 0.5*units.Milliwatt)
	set(Memory, 380*units.Milliwatt, 60*units.Milliwatt, 6*units.Milliwatt)
	set(Sensors, 30*units.Milliwatt, 6*units.Milliwatt, 0.3*units.Milliwatt)
	set(Network, 220*units.Milliwatt, 20*units.Milliwatt, 1*units.Milliwatt)
	return m
}

// Meter integrates component energy over simulated time. It is the
// simulator's equivalent of the Trepn power monitor used in the paper.
type Meter struct {
	model  *PowerModel
	energy [numComponents]units.Energy
	busy   [numComponents]units.Time // time spent Active
	total  [numComponents]units.Time // time accounted in any state
}

// NewMeter returns a meter over DefaultPowerModel.
func NewMeter() *Meter {
	return &Meter{model: DefaultPowerModel()}
}

// Model returns the meter's power model.
func (m *Meter) Model() *PowerModel { return m.model }

// Accrue charges component c for spending d in state s and returns the
// energy charged.
func (m *Meter) Accrue(c Component, s State, d units.Time) units.Energy {
	if d < 0 {
		panic("energy: negative duration")
	}
	e := units.EnergyOf(m.model.Draw(c, s), d)
	m.energy[c] += e
	m.total[c] += d
	if s == Active {
		m.busy[c] += d
	}
	return e
}

// Energy returns the total energy charged to component c.
func (m *Meter) Energy(c Component) units.Energy { return m.energy[c] }

// BusyTime returns the time component c spent Active.
func (m *Meter) BusyTime(c Component) units.Time { return m.busy[c] }

// Total returns the energy summed over all components.
func (m *Meter) Total() units.Energy {
	var t units.Energy
	for _, e := range m.energy {
		t += e
	}
	return t
}

// GroupTotals returns energy per Fig. 2 group.
func (m *Meter) GroupTotals() [NumGroups]units.Energy {
	var g [NumGroups]units.Energy
	for c := Component(0); int(c) < NumComponents; c++ {
		g[GroupOf(c)] += m.energy[c]
	}
	return g
}

// Breakdown returns the normalized per-group energy fractions in group
// order (Sensors, Memory, CPU, IPs). A zero-energy meter returns zeros.
func (m *Meter) Breakdown() [NumGroups]float64 {
	g := m.GroupTotals()
	total := m.Total()
	var out [NumGroups]float64
	if total == 0 {
		return out
	}
	for i := range g {
		out[i] = float64(g[i]) / float64(total)
	}
	return out
}

// Battery models the phone battery.
type Battery struct {
	Capacity units.Charge
}

// DefaultBattery returns the Pixel XL's 3450 mAh battery.
func DefaultBattery() Battery { return Battery{Capacity: units.BatteryCapacityPixelXL} }

// HoursToDrain returns how long a workload consuming `consumed` energy over
// `elapsed` simulated time would take to drain a full battery, matching the
// paper's methodology of extrapolating a 5–10 minute power measurement.
func (b Battery) HoursToDrain(consumed units.Energy, elapsed units.Time) float64 {
	if consumed <= 0 || elapsed <= 0 {
		return 0
	}
	// Average power in µJ/s: consumed [µJ] / elapsed [µs] × 1e6.
	avgPowerUJPerSec := float64(consumed) / float64(elapsed) * 1e6
	seconds := float64(b.Capacity.EnergyCapacity()) / avgPowerUJPerSec
	return seconds / 3600
}
