package snip

import (
	"time"

	"snip/internal/chaos"
	"snip/internal/cloud"
	"snip/internal/fleet"
	"snip/internal/memo"
	"snip/internal/units"
)

// SharedTable publishes one frozen lookup table to any number of
// concurrent readers and supports live OTA replacement (RCU-style: new
// probes see the new table immediately, in-flight probes finish on the
// old one). It is what a device fleet serves from.
type SharedTable struct {
	s *memo.Shared
}

// NewSharedTable freezes a built table and publishes it. A nil table is
// allowed: the fleet then executes everything until the first Publish.
func NewSharedTable(t *Table) *SharedTable {
	if t == nil {
		return &SharedTable{s: memo.NewShared(nil)}
	}
	return &SharedTable{s: memo.NewShared(t.t)}
}

// Publish freezes and atomically swaps in a new table, returning the new
// generation number. The displaced table is retained for one Rollback.
func (s *SharedTable) Publish(t *Table) int64 { return s.s.Swap(t.t) }

// Version returns the number of publications so far (0 when empty). It
// is monotonic even across rollbacks.
func (s *SharedTable) Version() int64 { return s.s.Version() }

// Generation returns the generation of the table currently being served
// — equal to Version until a Rollback restores an older one.
func (s *SharedTable) Generation() int64 { return s.s.Generation() }

// Swaps returns how many live replacements have happened.
func (s *SharedTable) Swaps() int64 { return s.s.Swaps() }

// Rollback re-publishes the table displaced by the last Publish — the
// remedy for a bad OTA push. It reports the restored generation, or
// false when there is nothing retained to restore (never published
// twice, or the retained table was already consumed by a rollback).
func (s *SharedTable) Rollback() (int64, bool) { return s.s.Rollback() }

// FleetDetailMax is the largest fleet that still reports per-device
// results and per-device health rows; bigger runs report aggregates
// only (at 100k devices the per-device JSON would dwarf the figures).
const FleetDetailMax = fleet.PerDeviceDetailMax

// FleetOptions configures a device-fleet serving run: N concurrent
// simulated devices playing workload-generated sessions against one
// SharedTable, optionally speaking the device→cloud protocol with a
// cloud profiler (batched uploads, telemetry, live OTA refreshes).
//
// Every run books each handled event into the device-side energy
// ledger: modeled µJ split by the paper's Fig. 2 groups and tagged cause
// buckets, rolled up into FleetReport.Energy, the health verdicts, and
// (with CloudURL) the records behind the energy view of the cloud's
// GET /v1/fleetz. The ledger consumes no randomness and no wall-clock,
// so it leaves every deterministic run tally byte-identical. Devices
// play on a shared scheduler pool of 2×GOMAXPROCS workers (capped at
// Devices), so 100k-device runs fit on one box.
type FleetOptions struct {
	// Game names the workload every device plays.
	Game string
	// Workload selects the behaviour-model preset ("" or "default" is
	// plain human play; "eventcam" layers an event-camera-style
	// high-rate motion sensor on top, multiplying the event rate 10–100×
	// — the saturating input for overload runs).
	Workload string
	// Devices is the number of concurrent devices (default 1).
	Devices int
	// SessionsPerDevice is how many sessions each device plays
	// (default 1).
	SessionsPerDevice int
	// Duration is each session's simulated length.
	Duration time.Duration
	// SeedBase offsets per-session seeds for reproducible runs.
	SeedBase uint64
	// Table is the shared table to serve from. Required.
	Table *SharedTable
	// CloudURL, when non-empty, points at a CloudService. Devices then
	// upload finished sessions in batches of BatchSize, fold
	// per-table-generation telemetry into compact records and ship them
	// to POST /v1/telemetry every 8 records (the cloud's GET /v1/fleetz
	// rolls them up), and run the overload contract: a 429 is retried
	// after its Retry-After on simulated time within a budget of 8
	// retries per device, and a batch the cloud still refuses is counted
	// shed (or dropped) instead of failing the device, so OfferedBatches
	// = Batches + BatchesShed + BatchesDropped holds on every report.
	// Telemetry consumes no randomness and no wall-clock, so it leaves
	// every deterministic run tally byte-identical, and a run without OTA
	// refresh ships the same telemetry bytes every time. Probe latencies
	// are wall-clock and stay on the device side (P50/P99LookupNS).
	CloudURL string
	// BatchSize is sessions per batched upload (default 1).
	BatchSize int
	// RefreshAfterSessions, when > 0, has one device trigger a cloud
	// rebuild + generation-negotiated update fetch + live swap once that
	// many sessions have been uploaded fleet-wide.
	RefreshAfterSessions int
	// Refreshes is how many OTA rounds the run performs: round k fires
	// after k*RefreshAfterSessions uploaded sessions. <= 1 keeps the
	// single-refresh behaviour. Rounds past the first ride the delta
	// path — the fleet already holds the previous generation.
	Refreshes int
	// Metrics, when non-nil, receives the snip_fleet_* series, the cloud
	// client's retry counter, and distributed-tracing spans (session and
	// batch-upload granularity) in its span buffer — with exemplar trace
	// IDs attached to the lookup-latency histogram.
	Metrics *Metrics
	// Chaos, when non-nil with a profile other than "off", injects
	// deterministic faults into the run (sensor glitches, device
	// crashes/stalls, wire corruption, poisoned OTA tables). Nil means no
	// fault injection and a byte-identical run.
	Chaos *ChaosOptions
	// Guard, when non-nil with a positive ShadowSampleRate, enables the
	// mispredict guard: sampled shadow verification of memo hits, a
	// circuit breaker on the mispredict ratio, and automatic rollback of
	// a bad OTA table. Nil disables.
	Guard *GuardOptions
}

// ChaosOptions selects a fault-injection profile for a fleet run.
type ChaosOptions struct {
	// Profile is one of "off", "sensors", "devices", "wire", "table",
	// "all". Empty means off.
	Profile string
	// Seed roots every fault decision; the same profile and seed replay
	// the same faults. 0 uses a fixed default.
	Seed uint64
}

// GuardOptions tunes the fleet's mispredict guard: ShadowSampleRate is
// the fraction of memo hits shadow-verified (<= 0 disables the guard),
// MaxMispredictRatio trips the circuit breaker and MinShadowSamples is
// the evidence floor before a generation can trip. Zero thresholds fall
// back to the defaults (trip past a 2% mispredict ratio, judge a table
// generation only after 20 shadow checks).
type GuardOptions = fleet.GuardConfig

// FleetGuardReport summarizes the mispredict guard's run: how many hits
// were shadow-verified, how many served wrong outputs, and whether the
// breaker tripped and the table rolled back.
type FleetGuardReport = fleet.GuardReport

// FleetChaosReport summarizes the faults a chaos profile injected.
type FleetChaosReport struct {
	Profile string           `json:"profile"`
	Seed    uint64           `json:"seed"`
	Total   int64            `json:"total"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// FleetSLOVerdict is one health threshold comparison.
type FleetSLOVerdict = fleet.SLOVerdict

// FleetDeviceHealth is one device's health view. SavedInstr is a plain
// instruction counter; EnergyUJ/SavedEnergyUJ carry the real modeled µJ
// from the energy ledger.
type FleetDeviceHealth = fleet.DeviceHealth

// FleetHealth is the run judged against the fleet's fixed SLO envelope:
// floors on the hit rate (0.05) and the saved-energy fraction (0.02),
// ceilings on the p99 probe latency (2^20 ns), retries per batch (1.0),
// the mispredict ratio (0.10) and the failed-device fraction (0.5).
type FleetHealth = fleet.HealthSnapshot

// FleetReport aggregates a fleet run, JSON-encodable for BENCH files.
type FleetReport struct {
	Game     string `json:"game"`
	Devices  int    `json:"devices"`
	Sessions int    `json:"sessions"`
	Events   int64  `json:"events"`

	Lookups int64   `json:"lookups"`
	Hits    int64   `json:"hits"`
	HitRate float64 `json:"hit_rate"`

	WallSeconds   float64 `json:"wall_seconds"`
	LookupsPerSec float64 `json:"lookups_per_sec"`
	P50LookupNS   int64   `json:"p50_lookup_ns"`
	P99LookupNS   int64   `json:"p99_lookup_ns"`

	Batches         int     `json:"batches"`
	UploadBytes     int64   `json:"upload_bytes"`
	RawUploadBytes  int64   `json:"raw_upload_bytes"`
	TransferSavings float64 `json:"transfer_savings"`

	Swaps        int64 `json:"swaps"`
	TableVersion int64 `json:"table_version"`
	// OTA transfer accounting across the refresh rounds: updates
	// negotiated, delta-chain applies (and total links), full-image
	// fallbacks after a failed delta, and the bytes moved on each path.
	// OTABytes == OTADeltaBytes + OTAFullBytes always.
	OTAUpdates       int64 `json:"ota_updates"`
	OTADeltaApplies  int64 `json:"ota_delta_applies"`
	OTADeltaLinks    int64 `json:"ota_delta_links"`
	OTAFullFallbacks int64 `json:"ota_full_fallbacks"`
	OTADeltaBytes    int64 `json:"ota_delta_bytes"`
	OTAFullBytes     int64 `json:"ota_full_bytes"`
	OTABytes         int64 `json:"ota_bytes"`
	OTAMaxChain      int   `json:"ota_max_chain"`
	// TableGeneration is the generation served at the end — below
	// TableVersion when the guard rolled a bad OTA push back.
	TableGeneration int64 `json:"table_generation"`
	// Rollbacks counts guard-triggered table restorations.
	Rollbacks int64 `json:"rollbacks"`

	// Retries counts transport retries across every device's uploads.
	Retries int `json:"retries"`
	// Batch conservation ledger: OfferedBatches = Batches + BatchesShed
	// + BatchesDropped on every run. Shed429 counts individual 429
	// responses the fleet's clients absorbed; BackoffNS the simulated
	// nanoseconds they spent backing off (virtual time — never slept).
	OfferedBatches int   `json:"offered_batches"`
	BatchesShed    int   `json:"batches_shed"`
	BatchesDropped int   `json:"batches_dropped"`
	Shed429        int64 `json:"shed_429"`
	BackoffNS      int64 `json:"backoff_ns"`
	// FailedDevices counts devices that died mid-run and were isolated
	// (their partial tallies still count; the run itself never aborts).
	FailedDevices int `json:"failed_devices"`
	// Health is the SLO judgment of the run. Always set.
	Health *FleetHealth `json:"health"`
	// Guard reports the mispredict guard (nil when disabled).
	Guard *FleetGuardReport `json:"guard,omitempty"`
	// Chaos reports injected faults (nil when chaos was off).
	Chaos *FleetChaosReport `json:"chaos,omitempty"`
	// Telemetry reports the telemetry pipeline's shipping outcome (nil
	// without CloudURL).
	Telemetry *FleetTelemetryReport `json:"telemetry,omitempty"`
	// Energy is the fleet-wide energy attribution rollup. Always set.
	Energy *FleetEnergyReport `json:"energy,omitempty"`
}

// FleetEnergyReport is the fleet-wide modeled-energy rollup: totals split
// by the paper's Fig. 2 groups (TotalUJ always equals their sum), the
// tagged cause buckets, energy per event, and the battery-hours
// extrapolation of the run's average per-device power (the paper's
// 5–10-minute-measurement methodology). SavedUJ is a credit — energy the
// verified short-circuits avoided — and is never part of TotalUJ.
type FleetEnergyReport = fleet.EnergyReport

// FleetTelemetryReport summarizes the device→cloud telemetry pipeline:
// records folded, batches/bytes shipped, and records lost to failed
// best-effort uploads.
type FleetTelemetryReport = fleet.TelemetryReport

// RunFleet executes a fleet serving run and reports its aggregate rates.
func RunFleet(o FleetOptions) (*FleetReport, error) {
	if o.Devices == 0 {
		o.Devices = 1
	}
	if o.SessionsPerDevice == 0 {
		o.SessionsPerDevice = 1
	}
	if o.BatchSize == 0 {
		o.BatchSize = 1
	}
	cfg := fleet.Config{
		Game:                 o.Game,
		Workload:             o.Workload,
		Devices:              o.Devices,
		SessionsPerDevice:    o.SessionsPerDevice,
		SessionDuration:      units.Time(o.Duration / time.Microsecond),
		SeedBase:             o.SeedBase,
		BatchSize:            o.BatchSize,
		RefreshAfterSessions: o.RefreshAfterSessions,
		Refreshes:            o.Refreshes,
		Obs:                  o.Metrics.Registry(),
		Spans:                o.Metrics.SpanBuffer(),
		Guard:                o.Guard,
		Energy:               &fleet.EnergyConfig{},
	}
	if o.Table != nil {
		cfg.Table = o.Table.s
	}
	var inj *chaos.Injector
	if o.Chaos != nil && o.Chaos.Profile != "" && o.Chaos.Profile != "off" {
		prof, err := chaos.Named(o.Chaos.Profile)
		if err != nil {
			return nil, err
		}
		prof.Seed = o.Chaos.Seed
		inj = chaos.New(prof)
		cfg.Chaos = inj
	}
	if o.CloudURL != "" {
		cfg.Client = cloud.NewClient(o.CloudURL)
		cfg.Client.SetMetrics(o.Metrics.Registry())
		// Wire chaos lives on the client's transport: every upload, rebuild
		// and table fetch crosses the faulty link. Nil-safe no-op when the
		// profile has no wire faults.
		cfg.Client.HTTP.Transport = inj.Transport(cfg.Client.HTTP.Transport)
	}
	r, err := fleet.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &FleetReport{
		Game:     r.Game,
		Devices:  r.Devices,
		Sessions: r.Sessions,
		Events:   r.Events,

		Lookups: r.Lookup.Lookups,
		Hits:    r.Lookup.Hits,
		HitRate: r.Lookup.HitRate(),

		WallSeconds:   r.Wall.Seconds(),
		LookupsPerSec: r.LookupsPerSec,
		P50LookupNS:   r.P50LookupNS,
		P99LookupNS:   r.P99LookupNS,

		Batches:         r.Batches,
		UploadBytes:     r.UploadBytes.Bytes(),
		RawUploadBytes:  r.RawBytes.Bytes(),
		TransferSavings: r.TransferSavings(),

		Swaps:            r.Swaps,
		TableVersion:     r.TableVersion,
		OTAUpdates:       r.OTAUpdates,
		OTADeltaApplies:  r.OTADeltaApplies,
		OTADeltaLinks:    r.OTADeltaLinks,
		OTAFullFallbacks: r.OTAFullFallbacks,
		OTADeltaBytes:    r.OTADeltaBytes.Bytes(),
		OTAFullBytes:     r.OTAFullBytes.Bytes(),
		OTABytes:         r.OTABytes.Bytes(),
		OTAMaxChain:      r.OTAMaxChain,
		TableGeneration:  r.TableGeneration,
		Rollbacks:        r.Rollbacks,
		Retries:          r.Retries,
		OfferedBatches:   r.OfferedBatches,
		BatchesShed:      r.BatchesShed,
		BatchesDropped:   r.BatchesDropped,
		Shed429:          r.Shed429,
		BackoffNS:        r.BackoffNS,
		FailedDevices:    r.FailedDevices,
		Health:           r.Health,
		Guard:            r.Guard,
		Chaos:            chaosReport(inj),
		Telemetry:        r.Telemetry,
		Energy:           r.Energy,
	}, nil
}

// chaosReport mirrors the injector's fault tallies into the public type.
func chaosReport(inj *chaos.Injector) *FleetChaosReport {
	if inj == nil {
		return nil
	}
	c := inj.Counts()
	p := inj.Profile()
	return &FleetChaosReport{Profile: p.Name, Seed: p.Seed, Total: c.Total(), Counts: c.Map()}
}
