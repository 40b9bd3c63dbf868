// Package soc simulates the mobile System-on-Chip the paper's games run
// on: a CPU cluster plus domain-specific accelerators/IPs (GPU, display
// controller, codecs, camera ISP, DSP, sensor hub) sharing a memory
// system. The simulator executes abstract "work units" on a virtual clock
// and charges every component's busy and idle time to an energy meter.
//
// The model is deliberately at the granularity the paper reasons about:
// event handlers burn dynamic instructions and memory traffic on the CPU
// and make offload calls to IPs. Short-circuiting an event (SNIP) removes
// the whole work unit; Max CPU removes only the CPU portion; Max IP only
// the IP calls — exactly the contrast in the paper's Table I.
package soc

import (
	"snip/internal/energy"
	"snip/internal/units"
)

// IPCall is one offload to an accelerator during event processing.
type IPCall struct {
	IP        energy.Component // which IP block
	Op        string           // operation, e.g. "render-frame"
	InputHash uint64           // identity of the call's inputs (Max IP memoizes on this)
	Duration  units.Time       // busy time on the IP
	MemBytes  units.Size       // memory traffic generated by the call
}

// Work is the abstract cost of processing one event end to end.
type Work struct {
	CPUInstr int64      // dynamic instructions on the CPU
	MemBytes units.Size // CPU-side memory traffic
	IPCalls  []IPCall   // accelerator invocations, in order
}

// Add accumulates other into w.
func (w *Work) Add(other Work) {
	w.CPUInstr += other.CPUInstr
	w.MemBytes += other.MemBytes
	w.IPCalls = append(w.IPCalls, other.IPCalls...)
}

// TotalIPTime returns the summed busy time of all IP calls.
func (w Work) TotalIPTime() units.Time {
	var t units.Time
	for _, c := range w.IPCalls {
		t += c.Duration
	}
	return t
}

// The SoC's calibrated performance parameters, approximating a
// Snapdragon-821-class part. During a game session the display stays
// Active and the input sensors sample continuously.
const (
	CPUFreqMHz       = 2150.0 // Kryo performance cluster clock
	IPC              = 1.8    // sustained instructions per cycle
	MemBytesPerMicro = 9000.0 // memory bandwidth in bytes per µs: ≈9 GB/s sustained LPDDR4

	instrPerMicro = CPUFreqMHz * IPC // MHz = instr/µs at IPC=1
)

// IdlePolicy decides the power state of a component when it has no work.
// The default (baseline Android) keeps components in Idle; the Max IP
// scheme power-collapses IPs to Sleep when they are not in use.
type IdlePolicy interface {
	IdleState(c energy.Component) energy.State
}

// DefaultIdlePolicy keeps every component in the Idle state when not busy.
type DefaultIdlePolicy struct{}

// IdleState implements IdlePolicy.
func (DefaultIdlePolicy) IdleState(energy.Component) energy.State { return energy.Idle }

// SleepIdleIPs power-collapses accelerator IPs when idle while leaving the
// CPU, memory, display and sensors in normal idle. This models the prior
// work the paper compares against as "Max IP". The GPU is exempt: waking
// a power-collapsed GPU every 16 ms frame would cost more than it saves,
// so real governors keep it clock-gated (Idle) instead.
type SleepIdleIPs struct{}

// IdleState implements IdlePolicy.
func (SleepIdleIPs) IdleState(c energy.Component) energy.State {
	switch c {
	case energy.CPU, energy.Memory, energy.Display, energy.Sensors, energy.GPU:
		return energy.Idle
	default:
		return energy.Sleep
	}
}

// ExecStats describes what one Execute call cost.
type ExecStats struct {
	CPUTime units.Time
	IPTime  units.Time
	MemTime units.Time
	Energy  units.Energy
	Instr   int64
}

// SoC is the simulated system-on-chip. It is single-threaded (the event
// loop model of Android's main looper): work executes sequentially on the
// virtual clock.
type SoC struct {
	meter  *energy.Meter
	clock  units.Time
	policy IdlePolicy
}

// New builds a SoC over the given meter. A nil policy uses
// DefaultIdlePolicy.
func New(meter *energy.Meter, policy IdlePolicy) *SoC {
	if meter == nil {
		meter = energy.NewMeter()
	}
	if policy == nil {
		policy = DefaultIdlePolicy{}
	}
	return &SoC{meter: meter, policy: policy}
}

// Meter returns the SoC's energy meter.
func (s *SoC) Meter() *energy.Meter { return s.meter }

// Now returns the current virtual time.
func (s *SoC) Now() units.Time { return s.clock }

// cpuTime converts an instruction count to CPU busy time.
func (s *SoC) cpuTime(instr int64) units.Time {
	if instr <= 0 {
		return 0
	}
	t := float64(instr) / instrPerMicro
	d := units.Time(t)
	if d == 0 {
		d = 1
	}
	return d
}

// memTime converts memory traffic to memory busy time.
func (s *SoC) memTime(bytes units.Size) units.Time {
	if bytes <= 0 {
		return 0
	}
	t := float64(bytes) / MemBytesPerMicro
	d := units.Time(t)
	if d == 0 {
		d = 1
	}
	return d
}

// idleAll charges idle (or sleep, per policy) power for every component
// except those in the active set, for duration d.
func (s *SoC) idleAll(d units.Time, active map[energy.Component]bool) {
	if d <= 0 {
		return
	}
	for _, c := range energy.Components() {
		if active[c] {
			continue
		}
		state := s.policy.IdleState(c)
		// The display is pinned Active during gameplay: the screen
		// renders continuously regardless of events. The touchscreen/gyro
		// sample continuously too, their draw folded into the sensors'
		// Idle rating.
		switch c {
		case energy.Display:
			state = energy.Active
		case energy.Sensors:
			state = energy.Idle
		}
		s.meter.Accrue(c, state, d)
	}
}

// Execute runs one work unit to completion, advancing the clock. The CPU
// handler and the accelerator calls it issued overlap, the way real game
// engines pipeline the GPU against the next frame's CPU work: the wall
// clock advances by max(CPU phase, summed IP time). Energy is charged per
// component from its own busy time, with idle power for the remainder of
// the window.
func (s *SoC) Execute(w Work) ExecStats {
	var st ExecStats
	st.Instr = w.CPUInstr

	cpuT := s.cpuTime(w.CPUInstr)
	memBytes := w.MemBytes
	var ipTotal units.Time
	ipBusy := make(map[energy.Component]units.Time)
	for _, call := range w.IPCalls {
		if call.Duration <= 0 {
			continue
		}
		ipTotal += call.Duration
		ipBusy[call.IP] += call.Duration
		memBytes += call.MemBytes
	}
	memT := s.memTime(memBytes)

	window := cpuT
	if ipTotal > window {
		window = ipTotal
	}
	if memT > window {
		window = memT
	}
	if window <= 0 {
		return st
	}

	busy := map[energy.Component]units.Time{
		energy.CPU:    cpuT,
		energy.Memory: memT,
	}
	for c, d := range ipBusy {
		busy[c] += d
	}
	for _, c := range energy.Components() {
		b := busy[c]
		if b > window {
			b = window
		}
		if b > 0 {
			s.meter.Accrue(c, energy.Active, b)
		}
		if rem := window - b; rem > 0 {
			state := s.policy.IdleState(c)
			if c == energy.Display {
				state = energy.Active
			}
			s.meter.Accrue(c, state, rem)
		}
	}

	s.clock += window
	st.CPUTime = cpuT
	st.IPTime = ipTotal
	st.MemTime = memT
	return st
}

// AdvanceTo idles the whole SoC forward to time t (e.g. the arrival of the
// next event). It is a no-op if t is in the past.
func (s *SoC) AdvanceTo(t units.Time) {
	if t <= s.clock {
		return
	}
	d := t - s.clock
	s.idleAll(d, nil)
	s.clock = t
}

// LookupOverhead charges the CPU+memory cost of a SNIP table lookup:
// hashing the event object, walking `probes` candidate entries in the
// bucket, and loading+comparing `compareBytes` of necessary inputs in
// total. This is the Fig. 11c overhead. The per-byte and per-probe costs
// model a managed-runtime hash-map walk (object headers, virtual calls),
// which is what the paper's software implementation pays. It returns the
// energy charged.
func (s *SoC) LookupOverhead(probes int64, compareBytes units.Size) units.Energy {
	instr := 6*int64(compareBytes) + 40*probes + 2000
	cpuT := s.cpuTime(instr)
	memT := s.memTime(compareBytes + units.Size(probes)*32)
	phase := cpuT
	if memT > phase {
		phase = memT
	}
	before := s.meter.Total()
	s.meter.Accrue(energy.CPU, energy.Active, phase)
	s.meter.Accrue(energy.Memory, energy.Active, memT)
	if phase > memT {
		s.meter.Accrue(energy.Memory, energy.Idle, phase-memT)
	}
	s.idleAll(phase, map[energy.Component]bool{energy.CPU: true, energy.Memory: true})
	s.clock += phase
	return s.meter.Total() - before
}
