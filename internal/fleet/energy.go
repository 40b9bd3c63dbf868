package fleet

import (
	"snip/internal/energy"
	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/soc"
	"snip/internal/units"
)

// Device-side energy attribution ledger: when Config.Energy is set, every
// handled event charges modeled µJ — delivery, table-lookup overhead,
// handler execution, shadow verification — into per-table-generation
// energy.Ledgers, split by the paper's Fig. 2 groups (Sensors, Memory,
// CPU, IPs) and tagged with cause buckets. At session boundaries the
// tally folds into the device's result and, with a cloud client,
// onto the outgoing TelemetryRecords (see deviceTally), making energy the fleet's
// first-class observable rather than a post-hoc report figure.
//
// The ledger follows the telemetry pipeline's discipline exactly: it
// consumes no randomness, reads no wall-clock, and never feeds back into
// serving decisions, so an energy-enabled run produces byte-identical
// tallies to a disabled one (pinned by TestFleetEnergyDoesNotPerturbRun).
//
// The charge model is the SoC simulator's, collapsed to precomputed
// per-unit rates (energy.NewRates over soc.DefaultConfig): per dynamic
// instruction, per memory byte, per µs of IP busy time. Two documented
// deviations from a full soc.SoC run: no idle-power accrual (the ledger
// charges event work, not wall time), and the short-circuit credit is a
// CPU-side estimate from the table entry's saved-instruction count (the
// entry does not carry the skipped handler's memory or IP profile).

// EnergyConfig enables the device-side energy ledger. The zero value uses
// the default SoC calibration; there are currently no knobs.
type EnergyConfig struct{}

// EnergyBreakdown is modeled energy split by Fig. 2 group and by cause.
// TotalUJ always equals the sum of the four group fields (pinned by
// fleetbench -validate's conservation check). SavedUJ is a credit —
// energy verified short-circuits avoided — and is never part of TotalUJ.
type EnergyBreakdown struct {
	TotalUJ   float64 `json:"total_uj"`
	SensorsUJ float64 `json:"sensors_uj"`
	MemoryUJ  float64 `json:"memory_uj"`
	CPUUJ     float64 `json:"cpu_uj"`
	IPsUJ     float64 `json:"ips_uj"`

	LookupOverheadUJ float64 `json:"lookup_overhead_uj"`
	ShadowVerifyUJ   float64 `json:"shadow_verify_uj"`
	SavedUJ          float64 `json:"saved_uj"`
	WastedUJ         float64 `json:"wasted_uj"`
}

func (b *EnergyBreakdown) add(o *EnergyBreakdown) {
	b.TotalUJ += o.TotalUJ
	b.SensorsUJ += o.SensorsUJ
	b.MemoryUJ += o.MemoryUJ
	b.CPUUJ += o.CPUUJ
	b.IPsUJ += o.IPsUJ
	b.LookupOverheadUJ += o.LookupOverheadUJ
	b.ShadowVerifyUJ += o.ShadowVerifyUJ
	b.SavedUJ += o.SavedUJ
	b.WastedUJ += o.WastedUJ
}

// EnergyReport is the fleet-wide energy rollup in a Result.
type EnergyReport struct {
	EnergyBreakdown
	// EnergyPerEventUJ is mean charged energy per delivered event.
	EnergyPerEventUJ float64 `json:"energy_per_event_uj"`
	// ElapsedUS is total simulated device-time (sessions × duration).
	ElapsedUS int64 `json:"elapsed_us"`
	// BatteryHours extrapolates the run's average per-device power to a
	// full battery drain, the paper's 5–10-minute-measurement
	// methodology (energy.Battery.HoursToDrain).
	BatteryHours float64 `json:"battery_hours"`
}

// ledgerRates derives the ledger's charge rates from the same SoC
// calibration the schemes simulation runs on, so fleet µJ and schemes
// µJ share one power model.
func ledgerRates() energy.Rates {
	c := soc.DefaultConfig()
	return energy.NewRates(c.CPUFreqMHz, c.IPC, c.MemBytesPerMicro)
}

// ledgerBreakdown reads a generation's ledger as a breakdown: the
// slice its TelemetryRecord carries and the device result sums.
func ledgerBreakdown(led *energy.Ledger) EnergyBreakdown {
	groups := led.Groups()
	return EnergyBreakdown{
		TotalUJ:          float64(led.Total()),
		SensorsUJ:        float64(groups[energy.GroupSensors]),
		MemoryUJ:         float64(groups[energy.GroupMemory]),
		CPUUJ:            float64(groups[energy.GroupCPU]),
		IPsUJ:            float64(groups[energy.GroupIPs]),
		LookupOverheadUJ: float64(led.CauseTotal(energy.CauseLookupOverhead)),
		ShadowVerifyUJ:   float64(led.CauseTotal(energy.CauseShadowVerify)),
		SavedUJ:          float64(led.CauseTotal(energy.CauseShortCircuitSaved)),
		WastedUJ:         float64(led.CauseTotal(energy.CauseWastedRedundant)),
	}
}

// The charge functions below book one event's work into a generation's
// ledger. Each is a no-op on a nil ledger (the ledger is off).

// chargeDelivery charges the OS-side cost of delivering one event —
// Binder copies on the CPU, the hub-processing IP call, and the sensor
// sampling that produced the reading — and counts the event.
func chargeDelivery(led *energy.Ledger, e *events.Event) {
	if led == nil {
		return
	}
	led.NoteEvent()
	cpu, mem, hub := events.DeliveryCostParts(e)
	led.ChargeInstr(cpu)
	led.ChargeMemBytes(int64(mem))
	led.ChargeBusy(energy.SensorHub, hub)
	// The sensors sampled for as long as the hub processed the reading.
	led.ChargeBusy(energy.Sensors, hub)
}

// chargeLookup charges the table-probe overhead — the same instruction
// and traffic formula as soc.SoC.LookupOverhead (Fig. 11c) — and tags it.
func chargeLookup(led *energy.Ledger, probes int64, cmpBytes units.Size) {
	if led == nil {
		return
	}
	e := led.ChargeInstr(6*int64(cmpBytes) + 40*probes + 2000)
	e += led.ChargeMemBytes(int64(cmpBytes) + probes*32)
	led.Attribute(energy.CauseLookupOverhead, e)
}

// chargeExecution charges one handler execution's work (CPU functions,
// memory traffic, IP calls) and returns the energy. The CPUFuncs and
// IPCalls are iterated directly rather than through Execution.Work,
// which would allocate the assembled slice per event.
func chargeExecution(led *energy.Ledger, exec *games.Execution) units.Energy {
	var instr int64
	var mem units.Size
	for _, f := range exec.CPUFuncs {
		instr += f.Instr
		mem += f.MemBytes
	}
	e := led.ChargeInstr(instr)
	for _, c := range exec.IPCalls {
		e += led.ChargeBusy(c.IP, c.Duration)
		mem += c.MemBytes
	}
	e += led.ChargeMemBytes(int64(mem))
	return e
}

// chargeExec charges a live handler execution (table miss or fail-safe
// full execution); work that changed no state is tagged wasted — the
// paper's redundant/useless events the table exists to short-circuit.
func chargeExec(led *energy.Ledger, exec *games.Execution) {
	if led == nil {
		return
	}
	e := chargeExecution(led, exec)
	if !exec.Record.StateChanged {
		led.Attribute(energy.CauseWastedRedundant, e)
	}
}

// chargeShadow charges a sampled shadow verification: the guard really
// ran the handler on a clone, so its work is spent energy, attributed to
// the shadow-verify bucket.
func chargeShadow(led *energy.Ledger, exec *games.Execution) {
	if led == nil {
		return
	}
	led.Attribute(energy.CauseShadowVerify, chargeExecution(led, exec))
}

// creditSaved books the short-circuit credit for a verified hit: the
// CPU-side estimate of the handler work the table avoided, from the
// entry's saved-instruction count. A credit, never a charge.
func creditSaved(led *energy.Ledger, instr int64) {
	led.Attribute(energy.CauseShortCircuitSaved, led.InstrEnergy(instr))
}
