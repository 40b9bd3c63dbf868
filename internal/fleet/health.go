package fleet

import "fmt"

// The SLO envelope a fleet run is judged against. The thresholds encode
// the paper's operating envelope: SNIP only pays for itself while the
// table keeps short-circuiting a solid fraction of events, the probe
// stays far below a frame budget, and uploads are not retry-storming the
// cloud.
const (
	// sloMinHitRate is the floor on the fleet-wide short-circuit rate.
	// Conservative: it catches a broken or mistrained table (hit rate
	// near zero) without flagging lightly-trained ones, whose legitimate
	// rates vary widely with training-set size.
	sloMinHitRate = 0.05
	// sloMaxP99LookupNS is the ceiling on the fleet-wide p99 probe
	// latency: ~1ms, orders of magnitude above a healthy probe.
	sloMaxP99LookupNS = 1 << 20
	// sloMaxRetriesPerBatch is the ceiling on transport retries per
	// upload batch (a retry storm means the cloud, not the devices, is
	// sick).
	sloMaxRetriesPerBatch = 1.0
	// sloMaxMispredictRatio is the ceiling on the guard's observed
	// mispredicts per shadow check; the verdict also fails whenever the
	// run ends with the circuit breaker open (the guard tripped and had
	// nothing to roll back to). The guard trips on a per-generation
	// basis well before the run-wide ratio reaches this; exceeding it
	// overall means the defense itself is not keeping up.
	sloMaxMispredictRatio = 0.10
	// sloMaxFailedDeviceFraction is the ceiling on the fraction of
	// devices that died mid-run: half the fleet dying is a run to
	// investigate even under an aggressive chaos profile.
	sloMaxFailedDeviceFraction = 0.5
	// sloMinSavedEnergyFraction is the floor on the fraction of modeled
	// energy the table's verified short-circuits recovered: saved /
	// (spent + saved), both in real µJ from the energy ledger. A table
	// whose short-circuits recover under 2% is not paying for its own
	// lookups. The check passes vacuously when the ledger is off or no
	// hit ever earned a credit to judge.
	sloMinSavedEnergyFraction = 0.02
)

// SLOVerdict is one threshold comparison; Value and Threshold are in
// the check's native unit (ratio or nanoseconds).
type SLOVerdict struct {
	Name      string  `json:"name"`
	OK        bool    `json:"ok"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Detail    string  `json:"detail,omitempty"`
}

// DeviceHealth is one device's health view, distilled from its tallies.
// SavedInstr is a plain instruction counter; EnergyUJ/SavedEnergyUJ are
// the real modeled µJ the verdicts judge (zero when the ledger is off).
type DeviceHealth struct {
	Device        int     `json:"device"`
	HitRate       float64 `json:"hit_rate"`
	SavedInstr    int64   `json:"saved_instr"`
	EnergyUJ      float64 `json:"energy_uj,omitempty"`
	SavedEnergyUJ float64 `json:"saved_energy_uj,omitempty"`
	P99LookupNS   int64   `json:"p99_lookup_ns"`
	Retries       int     `json:"retries"`
	Failed        bool    `json:"failed,omitempty"`
}

// HealthSnapshot rolls per-device health into fleet-wide SLO verdicts.
// Healthy is the conjunction of every verdict.
type HealthSnapshot struct {
	Healthy         bool           `json:"healthy"`
	HitRate         float64        `json:"hit_rate"`
	SavedInstr      int64          `json:"saved_instr"`
	EnergyUJ        float64        `json:"energy_uj,omitempty"`
	SavedEnergyUJ   float64        `json:"saved_energy_uj,omitempty"`
	P99LookupNS     int64          `json:"p99_lookup_ns"`
	Retries         int            `json:"retries"`
	RetriesPerBatch float64        `json:"retries_per_batch"`
	Verdicts        []SLOVerdict   `json:"verdicts"`
	Devices         []DeviceHealth `json:"devices,omitempty"`
}

// buildHealth judges a finished run against the SLO envelope. Checks
// whose denominator never moved (no lookups, no batches) pass
// vacuously: a pure serving run with an empty table is not "unhealthy",
// it just has nothing to judge.
func buildHealth(res *Result) *HealthSnapshot {
	h := &HealthSnapshot{
		Healthy:     true,
		SavedInstr:  res.SavedInstr,
		P99LookupNS: res.P99LookupNS,
		Retries:     res.Retries,
	}
	if res.Lookup.Lookups > 0 {
		h.HitRate = float64(res.Lookup.Hits) / float64(res.Lookup.Lookups)
	}
	if res.Batches > 0 {
		h.RetriesPerBatch = float64(res.Retries) / float64(res.Batches)
	}
	if res.Energy != nil {
		h.EnergyUJ = res.Energy.TotalUJ
		h.SavedEnergyUJ = res.Energy.SavedUJ
	}
	// Per-device rows exist only for fleets small enough to retain
	// per-device detail (<= PerDeviceDetailMax); the fleet-wide verdicts
	// above come from aggregates either way.
	for _, dr := range res.PerDevice {
		dh := DeviceHealth{
			Device:      dr.Device,
			SavedInstr:  dr.SavedInstr,
			P99LookupNS: dr.P99LookupNS,
			Retries:     dr.Retries,
			Failed:      dr.Failed,
		}
		if dr.Lookup.Lookups > 0 {
			dh.HitRate = float64(dr.Lookup.Hits) / float64(dr.Lookup.Lookups)
		}
		if dr.Energy != nil {
			dh.EnergyUJ = dr.Energy.TotalUJ
			dh.SavedEnergyUJ = dr.Energy.SavedUJ
		}
		h.Devices = append(h.Devices, dh)
	}

	add := func(v SLOVerdict) {
		h.Verdicts = append(h.Verdicts, v)
		if !v.OK {
			h.Healthy = false
		}
	}
	hit := SLOVerdict{
		Name: "hit_rate", Value: h.HitRate, Threshold: sloMinHitRate,
		OK: res.Lookup.Lookups == 0 || h.HitRate >= sloMinHitRate,
	}
	if !hit.OK {
		hit.Detail = fmt.Sprintf("fleet hit rate %.3f below floor %.3f", h.HitRate, sloMinHitRate)
	}
	add(hit)

	p99 := SLOVerdict{
		Name: "p99_lookup_ns", Value: float64(res.P99LookupNS), Threshold: sloMaxP99LookupNS,
		OK: res.Lookup.Lookups == 0 || res.P99LookupNS <= sloMaxP99LookupNS,
	}
	if !p99.OK {
		p99.Detail = fmt.Sprintf("p99 probe %dns above ceiling %dns", res.P99LookupNS, sloMaxP99LookupNS)
	}
	add(p99)

	retries := SLOVerdict{
		Name: "retries_per_batch", Value: h.RetriesPerBatch, Threshold: sloMaxRetriesPerBatch,
		OK: res.Batches == 0 || h.RetriesPerBatch <= sloMaxRetriesPerBatch,
	}
	if !retries.OK {
		retries.Detail = fmt.Sprintf("%.2f retries per batch above ceiling %.2f (retry storm)", h.RetriesPerBatch, sloMaxRetriesPerBatch)
	}
	add(retries)

	ratio := 0.0
	open := false
	var checks int64
	if res.Guard != nil {
		ratio = res.Guard.MispredictRatio()
		open = res.Guard.BreakerOpen
		checks = res.Guard.ShadowChecks
	}
	mis := SLOVerdict{
		Name: "mispredict_ratio", Value: ratio, Threshold: sloMaxMispredictRatio,
		OK: checks == 0 || (!open && ratio <= sloMaxMispredictRatio),
	}
	if !mis.OK {
		if open {
			mis.Detail = "run ended with the circuit breaker open (tripped with no rollback target)"
		} else {
			mis.Detail = fmt.Sprintf("mispredict ratio %.3f above ceiling %.3f", ratio, sloMaxMispredictRatio)
		}
	}
	add(mis)

	saved := 0.0
	if denom := h.EnergyUJ + h.SavedEnergyUJ; denom > 0 {
		saved = h.SavedEnergyUJ / denom
	}
	credit := SLOVerdict{
		Name: "saved_energy_fraction", Value: saved, Threshold: sloMinSavedEnergyFraction,
		// Vacuous without a ledger or without a single credited hit:
		// the hit_rate check owns "the table never hits"; this one
		// judges whether the hits that did land were worth their µJ.
		OK: res.Energy == nil || res.Energy.SavedUJ == 0 || saved >= sloMinSavedEnergyFraction,
	}
	if !credit.OK {
		credit.Detail = fmt.Sprintf("short-circuits recovered %.3f of modeled energy, below floor %.3f", saved, sloMinSavedEnergyFraction)
	}
	add(credit)

	failed := 0.0
	if res.Devices > 0 {
		failed = float64(res.FailedDevices) / float64(res.Devices)
	}
	dead := SLOVerdict{
		Name: "failed_devices", Value: failed, Threshold: sloMaxFailedDeviceFraction,
		OK: res.FailedDevices == 0 || failed <= sloMaxFailedDeviceFraction,
	}
	if !dead.OK {
		dead.Detail = fmt.Sprintf("%d of %d devices died mid-run", res.FailedDevices, res.Devices)
	}
	add(dead)
	return h
}
