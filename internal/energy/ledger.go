package energy

import (
	"fmt"

	"snip/internal/units"
)

// Cause labels one of the attribution buckets the fleet's energy ledger
// tracks alongside the Fig. 2 group totals. Unlike the Meter's free-form
// string tags, causes are a closed enum so the ledger's record path stays
// allocation-free (string tags cost a map insert per charge).
type Cause int

// The attribution buckets. CauseShortCircuitSaved is a credit: energy the
// table's verified short-circuits avoided spending, tracked separately and
// never added to the group totals.
const (
	CauseLookupOverhead Cause = iota
	CauseShadowVerify
	CauseShortCircuitSaved
	CauseWastedRedundant
	numCauses
)

// NumCauses is the number of attribution buckets.
const NumCauses = int(numCauses)

var causeNames = [...]string{
	CauseLookupOverhead:    "lookup-overhead",
	CauseShadowVerify:      "shadow-verify",
	CauseShortCircuitSaved: "short-circuit-saved",
	CauseWastedRedundant:   "wasted-on-redundant",
}

// String returns the cause name.
func (c Cause) String() string {
	if c < 0 || int(c) >= NumCauses {
		return fmt.Sprintf("Cause(%d)", int(c))
	}
	return causeNames[c]
}

// Rates converts abstract work units (dynamic instructions, memory bytes,
// component-busy time) straight to microjoules, so the fleet's per-event
// record path can account energy without running the SoC simulator. The
// conversion factors are precomputed from a power model plus the SoC's
// timing parameters; charging is then a handful of float multiply-adds.
type Rates struct {
	// PerInstrUJ is the energy of one CPU instruction: CPU active draw
	// over the time one instruction occupies the pipeline.
	PerInstrUJ float64
	// PerByteUJ is the energy of moving one byte through the memory
	// system at the modeled bandwidth.
	PerByteUJ float64
	// BusyPerUSUJ[c] is the active-draw energy of component c per
	// microsecond busy.
	BusyPerUSUJ [NumComponents]float64
}

// NewRates derives charge rates from SoC timing parameters (CPU frequency
// in MHz, sustained IPC, memory bytes per microsecond — the same numbers
// soc.DefaultConfig carries) and DefaultPowerModel.
func NewRates(cpuFreqMHz, ipc, memBytesPerMicro float64) Rates {
	pm := DefaultPowerModel()
	var r Rates
	if instrPerUS := cpuFreqMHz * ipc; instrPerUS > 0 {
		r.PerInstrUJ = float64(units.EnergyOf(pm.Draw(CPU, Active), units.Microsecond)) / instrPerUS
	}
	if memBytesPerMicro > 0 {
		r.PerByteUJ = float64(units.EnergyOf(pm.Draw(Memory, Active), units.Microsecond)) / memBytesPerMicro
	}
	for c := Component(0); int(c) < NumComponents; c++ {
		r.BusyPerUSUJ[c] = float64(units.EnergyOf(pm.Draw(c, Active), units.Microsecond))
	}
	return r
}

// Ledger is an allocation-free energy accumulator for the fleet's
// per-event hot path. Where the Meter integrates power over simulated time
// with free-form tags (fine for the offline schemes, too heavy for a
// device loop), the Ledger holds fixed arrays — one µJ total per Fig. 2
// group and one per Cause — and charges via precomputed Rates. All methods
// are nil-safe no-ops so call sites need no ledger-enabled branches.
type Ledger struct {
	rates  Rates
	groups [NumGroups]units.Energy
	causes [NumCauses]units.Energy
	events int64
}

// NewLedger returns a ledger charging at the given rates.
func NewLedger(r Rates) *Ledger { return &Ledger{rates: r} }

// NoteEvent counts one processed event against the ledger.
func (l *Ledger) NoteEvent() {
	if l == nil {
		return
	}
	l.events++
}

// ChargeInstr charges n CPU instructions to the CPU group and returns the
// energy charged.
func (l *Ledger) ChargeInstr(n int64) units.Energy {
	if l == nil || n <= 0 {
		return 0
	}
	e := units.Energy(float64(n) * l.rates.PerInstrUJ)
	l.groups[GroupCPU] += e
	return e
}

// ChargeMemBytes charges n bytes of memory traffic to the Memory group and
// returns the energy charged.
func (l *Ledger) ChargeMemBytes(n int64) units.Energy {
	if l == nil || n <= 0 {
		return 0
	}
	e := units.Energy(float64(n) * l.rates.PerByteUJ)
	l.groups[GroupMemory] += e
	return e
}

// ChargeBusy charges component c active for d and returns the energy
// charged. The energy lands in c's Fig. 2 group, so IP calls accrue to
// IPs and sensor sampling to Sensors.
func (l *Ledger) ChargeBusy(c Component, d units.Time) units.Energy {
	if l == nil || d <= 0 || c < 0 || int(c) >= NumComponents {
		return 0
	}
	e := units.Energy(float64(d) * l.rates.BusyPerUSUJ[c])
	l.groups[GroupOf(c)] += e
	return e
}

// Attribute adds already-charged (or, for CauseShortCircuitSaved, avoided)
// energy to a cause bucket without touching the group totals.
func (l *Ledger) Attribute(c Cause, e units.Energy) {
	if l == nil || c < 0 || int(c) >= NumCauses {
		return
	}
	l.causes[c] += e
}

// InstrEnergy converts an instruction count to energy without charging it;
// used to size the short-circuit credit from a table entry's saved-instr
// count.
func (l *Ledger) InstrEnergy(n int64) units.Energy {
	if l == nil || n <= 0 {
		return 0
	}
	return units.Energy(float64(n) * l.rates.PerInstrUJ)
}

// Total returns the energy charged across all groups. The credit bucket
// (CauseShortCircuitSaved) is not part of the total: it is energy that was
// never spent.
func (l *Ledger) Total() units.Energy {
	if l == nil {
		return 0
	}
	var t units.Energy
	for _, e := range l.groups {
		t += e
	}
	return t
}

// Groups returns the per-group totals in Fig. 2 order
// (Sensors, Memory, CPU, IPs).
func (l *Ledger) Groups() [NumGroups]units.Energy {
	if l == nil {
		return [NumGroups]units.Energy{}
	}
	return l.groups
}

// CauseTotal returns the energy attributed to cause c.
func (l *Ledger) CauseTotal(c Cause) units.Energy {
	if l == nil || c < 0 || int(c) >= NumCauses {
		return 0
	}
	return l.causes[c]
}

// Events returns the number of events noted.
func (l *Ledger) Events() int64 {
	if l == nil {
		return 0
	}
	return l.events
}

// PerEvent returns the mean charged energy per noted event.
func (l *Ledger) PerEvent() float64 {
	if l == nil || l.events == 0 {
		return 0
	}
	return float64(l.Total()) / float64(l.events)
}

// Reset zeroes the totals, keeping the rates.
func (l *Ledger) Reset() {
	if l == nil {
		return
	}
	l.groups = [NumGroups]units.Energy{}
	l.causes = [NumCauses]units.Energy{}
	l.events = 0
}
