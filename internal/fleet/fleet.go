// Package fleet drives many simulated devices against one shared SNIP
// deployment: a read-mostly lookup table published through memo.Shared,
// a cloud profiler reached through one pooled cloud.Client, and the
// per-game behaviour models from internal/workload generating each
// device's sessions.
//
// This is the serving-side complement to the single-device energy
// simulation in internal/schemes. A schemes session charges every joule
// on one phone; a fleet run asks the systems questions instead: how many
// lookups per second does one frozen table sustain across N devices, what
// are the p50/p99 probe latencies, how many bytes does batched ingest put
// on the wire, and does a live OTA table swap disturb any of it.
//
// Three properties make the fleet safe and measurable:
//
//   - The table is immutable. Devices call Lookup on the frozen table
//     (the flat image the cloud serves) loaded from a memo.Shared; all
//     per-probe cost tallies accumulate in each device's own
//     memo.LookupStats. No lookup mutates anything.
//   - OTA refresh is RCU-style. One device triggers rebuild+fetch+swap
//     mid-run; every other device picks up the new table on its next
//     Shared.Load with no locks and no pause.
//   - Workloads are open-loop. Event streams depend only on (game, seed),
//     never on table contents, so total sessions, events and lookups are
//     seed-deterministic even though hit counts vary with swap timing.
package fleet

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"snip/internal/chaos"
	"snip/internal/cloud"
	"snip/internal/energy"
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
	"snip/internal/workload"
)

// Config describes one fleet run.
type Config struct {
	// Game names the workload every device plays.
	Game string
	// Workload selects the behaviour-model preset every device's
	// generator runs under (workload.ForWorkload). Empty is the default
	// human-play model; "eventcam" layers the event-camera-style
	// high-rate motion sensor on top of it.
	Workload string
	// Devices is the number of concurrent simulated devices.
	Devices int
	// SessionsPerDevice is how many sessions each device plays.
	SessionsPerDevice int
	// SessionDuration is the simulated length of each session.
	SessionDuration units.Time
	// SeedBase offsets the per-session seeds; device d session s plays
	// seed SeedBase + d*SessionsPerDevice + s, so runs are reproducible
	// and no two sessions collide.
	SeedBase uint64

	// Table is the shared read-mostly table all devices probe. Required;
	// it may start empty (Load() == nil) if an OTA refresh will publish
	// the first table mid-run.
	Table *memo.Shared
	// Client reaches the cloud profiler. With a client, devices speak the
	// one device→cloud protocol: they upload their sessions in batches,
	// fold per-generation telemetry and ship it every
	// telemetryFlushRecords records (see telemetry.go), and run the
	// overload contract (see callControl): a 429 is retried on simulated
	// time within a fixed per-device budget, and a batch the cloud still
	// refuses is booked shed or dropped instead of failing the device.
	// Nil disables uploads, telemetry and OTA refresh (a pure
	// lookup-serving run).
	Client *cloud.Client
	// BatchSize is the number of finished sessions a device packs into
	// one gzip'd upload-batch. <= 1 uploads every session individually
	// via the batch endpoint.
	BatchSize int
	// RefreshAfterSessions triggers the live OTA path: once that many
	// sessions have been uploaded fleet-wide, exactly one device asks the
	// cloud to rebuild, negotiates an update (delta chain against the
	// table it already holds, or the full image) and swaps it into Table
	// while every other device keeps serving. 0 disables.
	RefreshAfterSessions int
	// Refreshes is how many OTA rounds the run performs: round k fires
	// once k*RefreshAfterSessions sessions have been uploaded. <= 1 keeps
	// the single-refresh behaviour. Later rounds ride the delta path —
	// the device already holds the previous generation.
	Refreshes int

	// Obs, when non-nil, receives fleet counters and the lookup latency
	// histogram (snip_fleet_*). Write-only, like everywhere else.
	Obs *obs.Registry
	// Spans, when non-nil, receives distributed-tracing spans at session
	// and batch-upload granularity. The per-event probe loop deliberately
	// records NO spans — N devices hammering one mutex ring would
	// serialize the very hot path the fleet exists to measure; events
	// surface in traces via lookup-latency histogram exemplars instead.
	// The batch upload's span context rides the X-Snip-Trace header, so
	// the cloud's ingest span lands in the same trace.
	Spans *obs.SpanBuffer

	// Chaos, when non-nil, injects deterministic sensor, device, and
	// table faults into the run (wire faults are injected one layer up,
	// on the cloud client's transport). Nil means no chaos and no code
	// path even touches the injector.
	Chaos *chaos.Injector
	// Guard, when non-nil with a positive ShadowSampleRate, enables the
	// sampled mispredict guard: shadow verification of memo hits, the
	// circuit breaker, and automatic table rollback. Nil disables — and a
	// disabled guard draws no randomness, so unguarded runs are
	// byte-identical to builds without the guard.
	Guard *GuardConfig
	// Energy, when non-nil, enables the device-side energy attribution
	// ledger: per-generation modeled µJ split by Fig. 2 group and cause
	// bucket, folded into results, health verdicts and (with a Client)
	// TelemetryRecords. Like telemetry, the ledger consumes no
	// randomness and reads no wall-clock, so enabling it leaves every
	// deterministic run tally byte-identical.
	Energy *EnergyConfig

	// Workers sizes the shared scheduler's worker pool (see
	// scheduler.go). <= 0 picks 2×GOMAXPROCS, capped at Devices.
	Workers int
}

func (c Config) validate() error {
	if c.Game == "" {
		return fmt.Errorf("fleet: missing game")
	}
	if c.Devices < 1 {
		return fmt.Errorf("fleet: need at least 1 device, got %d", c.Devices)
	}
	if c.SessionsPerDevice < 1 {
		return fmt.Errorf("fleet: need at least 1 session per device, got %d", c.SessionsPerDevice)
	}
	if c.SessionDuration <= 0 {
		return fmt.Errorf("fleet: session duration must be positive")
	}
	if c.Table == nil {
		return fmt.Errorf("fleet: missing shared table")
	}
	if c.RefreshAfterSessions > 0 && c.Client == nil {
		return fmt.Errorf("fleet: OTA refresh needs a cloud client")
	}
	return nil
}

// latHist is a power-of-two-bucket latency histogram: bucket i counts
// observations whose nanosecond value has bit length i. Per-device and
// unsynchronized — devices merge their histograms at the end.
type latHist struct {
	buckets [41]int64
	count   int64
}

func (h *latHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
	h.count++
}

func (h *latHist) merge(o *latHist) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
}

// quantile returns the upper bound (2^i - 1 ns) of the bucket containing
// the q-th observation — a factor-of-two estimate, which is all a load
// harness needs to tell 200 ns from 2 µs.
func (h *latHist) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count-1))
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 1<<uint(len(h.buckets)) - 1
}

// DeviceResult is one device's tallies.
type DeviceResult struct {
	Device      int              `json:"device"`
	Sessions    int              `json:"sessions"`
	Events      int64            `json:"events"`
	Lookup      memo.LookupStats `json:"lookup"`
	Batches     int              `json:"batches"`
	UploadBytes units.Size       `json:"upload_bytes"`
	RawBytes    units.Size       `json:"raw_bytes"`
	// SavedInstr is the dynamic-instruction weight of the handler work
	// the device's table hits short-circuited (the energy proxy).
	SavedInstr int64 `json:"saved_instr"`
	// Retries counts transport retries across the device's uploads.
	Retries int `json:"retries"`
	// Batch conservation ledger: every flush of pending sessions is
	// offered exactly once and ends as accepted (Batches), shed (the
	// cloud answered 429 to the end) or dropped (any other terminal
	// failure), so OfferedBatches = Batches + BatchesShed +
	// BatchesDropped always holds. Shed429 counts the individual 429
	// responses behind those outcomes.
	OfferedBatches int   `json:"offered_batches,omitempty"`
	BatchesShed    int   `json:"batches_shed,omitempty"`
	BatchesDropped int   `json:"batches_dropped,omitempty"`
	Shed429        int64 `json:"shed_429,omitempty"`
	// Telemetry accounting (zero without a client):
	// records folded, batches/bytes shipped, records lost to failed
	// best-effort uploads.
	TelemetryRecords int64      `json:"telemetry_records,omitempty"`
	TelemetryBatches int64      `json:"telemetry_batches,omitempty"`
	TelemetryBytes   units.Size `json:"telemetry_bytes,omitempty"`
	TelemetryDropped int64      `json:"telemetry_dropped,omitempty"`
	// Energy is the device's modeled-energy breakdown (nil when the
	// ledger is disabled).
	Energy *EnergyBreakdown `json:"energy,omitempty"`
	// P99LookupNS is the device's own p99 probe latency estimate, over
	// its timed probes (1 in 16).
	P99LookupNS int64 `json:"p99_lookup_ns"`
	// Failed marks a device that died mid-run (an injected crash or a
	// failed OTA round; a refused upload costs only its batch). The
	// coordinator isolates it — its tallies up to the failure still
	// count — and the run continues.
	Failed bool `json:"failed,omitempty"`
	// FailReason says why (empty for healthy devices).
	FailReason string `json:"fail_reason,omitempty"`
}

// Result aggregates a fleet run.
type Result struct {
	Game     string `json:"game"`
	Devices  int    `json:"devices"`
	Sessions int    `json:"sessions"`
	Events   int64  `json:"events"`

	// Lookup merges every device's probe tallies.
	Lookup memo.LookupStats `json:"lookup"`

	// Wall is the run's wall-clock time; LookupsPerSec the fleet-wide
	// serving rate over it.
	Wall          time.Duration `json:"wall_ns"`
	LookupsPerSec float64       `json:"lookups_per_sec"`
	// P50/P99LookupNS are power-of-two-bucket estimates of per-probe
	// latency (table probe only, not handler execution), over the 1 in
	// 16 probes each session times.
	P50LookupNS int64 `json:"p50_lookup_ns"`
	P99LookupNS int64 `json:"p99_lookup_ns"`

	// Upload accounting: batches put on the wire, their compressed bytes,
	// and the bytes the same sessions would have cost uploaded singly.
	Batches     int        `json:"batches"`
	UploadBytes units.Size `json:"upload_bytes"`
	RawBytes    units.Size `json:"raw_bytes"`

	// OTA transfer accounting across the run's refresh rounds: updates
	// negotiated, how many arrived as delta chains (and their total link
	// count), how many fell back to the full image after a failed delta,
	// and the bytes moved on each path. OTABytes is the total the OTA
	// exchanges put on the wire — always OTADeltaBytes + OTAFullBytes.
	OTAUpdates       int64      `json:"ota_updates"`
	OTADeltaApplies  int64      `json:"ota_delta_applies"`
	OTADeltaLinks    int64      `json:"ota_delta_links"`
	OTAFullFallbacks int64      `json:"ota_full_fallbacks"`
	OTADeltaBytes    units.Size `json:"ota_delta_bytes"`
	OTAFullBytes     units.Size `json:"ota_full_bytes"`
	OTABytes         units.Size `json:"ota_bytes"`
	OTAMaxChain      int        `json:"ota_max_chain"`

	// Swaps and TableVersion expose the shared table's OTA history over
	// the run (swaps performed during it, version at the end).
	Swaps        int64 `json:"swaps"`
	TableVersion int64 `json:"table_version"`
	// TableGeneration is the generation actually being served at the end
	// — equal to TableVersion unless the guard rolled a bad swap back.
	TableGeneration int64 `json:"table_generation"`
	// Rollbacks counts guard-triggered table restorations during the run.
	Rollbacks int64 `json:"rollbacks"`

	// Retries counts transport retries across every device's uploads.
	Retries int `json:"retries"`

	// SavedInstr sums every device's short-circuited instruction weight
	// — aggregated here so compact mega-fleet runs (PerDevice omitted
	// past PerDeviceDetailMax) still carry the energy proxy.
	SavedInstr int64 `json:"saved_instr"`

	// Fleet-wide batch conservation ledger (see DeviceResult):
	// OfferedBatches = Batches + BatchesShed + BatchesDropped.
	OfferedBatches int   `json:"offered_batches"`
	BatchesShed    int   `json:"batches_shed"`
	BatchesDropped int   `json:"batches_dropped"`
	Shed429        int64 `json:"shed_429"`
	// BackoffNS is the simulated (virtual) nanoseconds the fleet spent
	// backing off shed uploads — accumulated, never slept.
	BackoffNS int64 `json:"backoff_ns"`

	// FailedDevices counts devices that died mid-run and were isolated.
	FailedDevices int `json:"failed_devices"`

	// PerDevice holds each device's tallies for fleets up to
	// PerDeviceDetailMax devices; larger runs report aggregates only.
	PerDevice []DeviceResult `json:"per_device,omitempty"`

	// Guard reports the mispredict guard (nil when disabled); Chaos the
	// injected-fault tallies (nil when no injector was configured);
	// Telemetry the telemetry pipeline's shipping outcome (nil without a
	// client).
	Guard     *GuardReport     `json:"guard,omitempty"`
	Chaos     *chaos.Counts    `json:"chaos,omitempty"`
	Telemetry *TelemetryReport `json:"telemetry,omitempty"`
	// Energy is the fleet-wide energy attribution rollup (nil when the
	// ledger is disabled).
	Energy *EnergyReport `json:"energy,omitempty"`

	// Health is the run judged against the fixed SLO envelope (see
	// health.go). Always set by Run.
	Health *HealthSnapshot `json:"health"`
}

// TransferSavings returns the fraction of single-upload bytes the
// batched path avoided (0 when nothing was uploaded).
func (r *Result) TransferSavings() float64 {
	if r.RawBytes == 0 {
		return 0
	}
	return 1 - float64(r.UploadBytes)/float64(r.RawBytes)
}

// fleetMetrics holds the registry handles; all nil-safe.
type fleetMetrics struct {
	sessions *obs.Counter
	events   *obs.Counter
	lookups  *obs.Counter
	hits     *obs.Counter
	batches  *obs.Counter
	bytes    *obs.Counter
	swaps    *obs.Counter
	failures *obs.Counter
	lookupNS *obs.Histogram
	// unhandled keeps the runtime's dispatch series, as schemes.Run does.
	unhandled *obs.Counter

	telRecords *obs.Counter
	telBatches *obs.Counter
	telBytes   *obs.Counter
	telDropped *obs.Counter
}

func newFleetMetrics(reg *obs.Registry) fleetMetrics {
	return fleetMetrics{
		sessions: reg.Counter("snip_fleet_sessions_total", "sessions played by the device fleet"),
		events:   reg.Counter("snip_fleet_events_total", "events delivered across the fleet"),
		lookups:  reg.Counter("snip_fleet_lookups_total", "shared-table probes across the fleet"),
		hits:     reg.Counter("snip_fleet_hits_total", "shared-table probes that short-circuited"),
		batches:  reg.Counter("snip_fleet_upload_batches_total", "batched uploads sent by the fleet"),
		bytes:    reg.Counter("snip_fleet_upload_bytes_total", "compressed bytes the fleet put on the wire"),
		swaps:    reg.Counter("snip_fleet_table_swaps_total", "live OTA table swaps observed by the fleet"),
		failures: reg.Counter("snip_fleet_device_failures_total", "devices that died mid-run and were isolated"),
		lookupNS: reg.Histogram("snip_fleet_lookup_ns", "shared-table probe wall time in nanoseconds, of 1 probe in 16 (each session's 0th, 16th, 32nd ...)", obs.NanoBuckets()),

		unhandled: reg.Counter("snip_dispatch_unhandled_total", "events with no registered handler"),

		telRecords: reg.Counter("snip_fleet_telemetry_records_total", "telemetry records folded by the fleet's devices"),
		telBatches: reg.Counter("snip_fleet_telemetry_batches_total", "telemetry batches shipped to the cloud"),
		telBytes:   reg.Counter("snip_fleet_telemetry_bytes_total", "compressed telemetry bytes put on the wire"),
		telDropped: reg.Counter("snip_fleet_telemetry_dropped_total", "telemetry records dropped by failed best-effort uploads"),
	}
}

// run-wide coordination state shared by the device goroutines.
type coordinator struct {
	cfg      Config
	met      fleetMetrics
	salt     uint64       // trace-ID salt, fixed per run: HashName("fleet/"+Game)
	uploaded atomic.Int64 // sessions confirmed ingested by the cloud
	rounds   atomic.Int64 // OTA refresh rounds claimed
	guard    *guard       // nil when the mispredict guard is disabled
	// rates are the energy ledger's charge rates, derived once per run
	// from the SoC calibration (see ledgerRates).
	rates energy.Rates

	// backoffNS accumulates the fleet's simulated backoff time under the
	// overload contract: CallControl.Sleep adds here instead of sleeping,
	// so shed retries cost virtual time, never harness wall-clock.
	backoffNS atomic.Int64

	// refreshMu serializes the execution of claimed OTA rounds. Claims
	// are lock-free (the CAS on rounds), but two in-flight rounds must
	// not interleave their rebuild+fetch+swap: the later round's fetch
	// would advance the generation under the earlier one, collapsing it
	// into a NotModified no-op and losing a swap.
	refreshMu sync.Mutex

	// OTA negotiation state, guarded by otaMu: the cloud generation the
	// fleet last fetched and the clean (pre-chaos) flat table of that
	// generation — the base the next round's delta chain patches. A
	// locally-built starting table has otaVersion 0, so the first round
	// always fetches the full image.
	otaMu      sync.Mutex
	otaVersion int
	otaBase    *memo.FlatTable
	ota        otaTally
}

// otaTally accumulates the run's OTA transfer accounting (see the
// Result's OTA* fields).
type otaTally struct {
	updates, deltaApplies, deltaLinks, fullFallbacks int64
	deltaBytes, fullBytes                            units.Size
	maxChain                                         int
}

// sessionCtx derives the deterministic root span context for a session
// seed: pure arithmetic on (seed, game salt), no RNG consumed, so the
// same seed always lands in the same trace — on the device and, via the
// propagated header, in the cloud.
func (co *coordinator) sessionCtx(seed uint64) obs.SpanContext {
	return obs.Root(obs.NewTraceID(seed, co.salt))
}

// maybeRefresh performs a live OTA round once the fleet has uploaded
// enough sessions: round k fires at k*RefreshAfterSessions. Called by
// whichever device crosses a threshold first, right after its
// successful batch upload — so the profiler is guaranteed to hold the
// sessions the rebuild will train on. The fetch is generation-
// negotiated: the first round pulls the full image (the locally-built
// starting table has no cloud generation), later rounds ride the delta
// chain against the previous fetch, falling back to the full image when
// the chain cannot apply.
func (co *coordinator) maybeRefresh() error {
	cfg := co.cfg
	if cfg.RefreshAfterSessions <= 0 {
		return nil
	}
	rounds := int64(cfg.Refreshes)
	if rounds < 1 {
		rounds = 1
	}
	for {
		claimed := co.rounds.Load()
		if claimed >= rounds ||
			co.uploaded.Load() < (claimed+1)*int64(cfg.RefreshAfterSessions) {
			return nil
		}
		if co.rounds.CompareAndSwap(claimed, claimed+1) {
			break
		}
	}
	co.refreshMu.Lock()
	defer co.refreshMu.Unlock()
	if err := cfg.Client.Rebuild(cfg.Game); err != nil {
		return fmt.Errorf("fleet: ota rebuild: %w", err)
	}
	co.otaMu.Lock()
	base, baseVer := co.otaBase, co.otaVersion
	co.otaMu.Unlock()
	ur, err := cfg.Client.FetchUpdate(cfg.Game, baseVer, base)
	if err != nil {
		return fmt.Errorf("fleet: ota fetch: %w", err)
	}
	if ur.NotModified {
		return nil
	}
	up := ur.Update
	co.otaMu.Lock()
	co.ota.updates++
	co.ota.deltaBytes += ur.DeltaBytes
	co.ota.fullBytes += ur.FullBytes
	if ur.Format == "delta" {
		co.ota.deltaApplies++
		co.ota.deltaLinks += int64(ur.DeltaLinks)
		if ur.DeltaLinks > co.ota.maxChain {
			co.ota.maxChain = ur.DeltaLinks
		}
	}
	if ur.FullFallback {
		co.ota.fullFallbacks++
	}
	flat, _ := up.Table.(*memo.FlatTable)
	co.otaVersion = up.Version
	co.otaBase = flat
	co.otaMu.Unlock()
	tab := up.Table
	// Table chaos corrupts the fetched copy before it is published — the
	// "bad OTA push" the guard loop exists to catch and roll back. The
	// clean copy stays the delta base: its generation is what the cloud
	// serves, whatever the guard later does to the published one.
	if poisoned, n := cfg.Chaos.MaybePoisonTable(flat); n > 0 {
		tab = poisoned
	}
	cfg.Table.Swap(tab)
	co.met.swaps.Inc()
	co.guard.onSwap()
	return nil
}

// device plays one device's sessions into res and hist (supplied by the
// scheduler: a fresh pair in detail mode, the worker's shared hist for
// compact mega-fleets) on the worker's pooled runtime, whose game is
// Reset per session.
func (co *coordinator) device(id int, gen workload.Generator, dev *schemes.Device, hist *latHist) (DeviceResult, error) {
	cfg := co.cfg
	res := DeviceResult{Device: id}
	tally := newDeviceTally(co, id, &res, hist)

	var pending []trace.SessionEvents
	flush := func() error {
		if cfg.Client == nil || len(pending) == 0 {
			return nil
		}
		// The batch joins the trace of its first session; that context
		// rides X-Snip-Trace so the cloud's ingest span parents onto the
		// upload span recorded here.
		sc := co.sessionCtx(pending[0].Seed)
		res.OfferedBatches++
		uploadStart := time.Now()
		br, err := cfg.Client.UploadBatchControlled(cfg.Game, pending, sc, tally.ctl)
		res.Retries += br.Retries
		res.Shed429 += int64(br.Shed)
		sp := obs.StartSpan(sc.Child(obs.HashName("upload.batch")), sc.Span, "upload.batch", 0)
		sp.Service = "device"
		sp.Err = err != nil
		cfg.Spans.FinishWall(&sp, time.Since(uploadStart).Nanoseconds())
		if err != nil {
			// Overload contract: the batch is consumed, not fatal. A
			// terminal 429 chain books it shed (the cloud chose to refuse
			// it); anything else books it dropped. Either way the device
			// clears pending and keeps playing — exactly what a real
			// client does when the cloud is protecting itself.
			if errors.Is(err, cloud.ErrShed) {
				res.BatchesShed++
			} else {
				res.BatchesDropped++
			}
			pending = pending[:0]
			tally.flush(false)
			return nil
		}
		res.Batches++
		res.UploadBytes += br.Wire
		for i := range pending {
			raw, err := trace.EventsOnlyTransferSize(pending[i].Log)
			if err != nil {
				return err
			}
			res.RawBytes += raw
		}
		co.uploaded.Add(int64(len(pending)))
		co.met.batches.Inc()
		co.met.bytes.Add(int64(br.Wire))
		pending = pending[:0]
		// Piggyback: telemetry rides the upload cadence, shipping its own
		// batch only when enough records have accumulated.
		tally.flush(false)
		return co.maybeRefresh()
	}

	batch := cfg.BatchSize
	if batch < 1 {
		batch = 1
	}
	for s := 0; s < cfg.SessionsPerDevice; s++ {
		// Device chaos: a stalled device just runs late; a crashed one
		// returns — the coordinator isolates it and the run continues.
		crash, stall := cfg.Chaos.SessionFaults(id, s)
		if stall > 0 {
			time.Sleep(stall)
		}
		if crash {
			return res, fmt.Errorf("fleet: device %d session %d: %w", id, s, chaos.ErrDeviceCrash)
		}
		seed := cfg.SeedBase + uint64(id*cfg.SessionsPerDevice+s)
		log := co.session(dev, gen, seed, tally)
		res.Sessions++
		co.met.sessions.Inc()
		if cfg.Client != nil {
			pending = append(pending, trace.SessionEvents{Seed: seed, Log: log})
		}
		tally.fold(s, len(pending), batch)
		if len(pending) >= batch {
			if err := flush(); err != nil {
				return res, err
			}
		}
	}
	err := flush()
	// Forced final flush: ship whatever telemetry remains even when the
	// last upload failed — drops are counted, never silent.
	tally.flush(true)
	return res, err
}

// session plays one seed on the device through the SNIP runtime: every
// delivered event loads the current shared-table snapshot, probes it,
// and either short-circuits or executes the handler — the decision
// schemes.Run makes for the SNIP scheme, booked into the device's tally
// instead of a simulated SoC.
func (co *coordinator) session(dev *schemes.Device, gen workload.Generator, seed uint64, tally *deviceTally) *trace.EventLog {
	cfg := co.cfg
	sc := co.sessionCtx(seed)
	sessionStart := time.Now()
	s := schemes.Session{Gen: gen, Seed: seed, Duration: cfg.SessionDuration}
	if cfg.Chaos != nil {
		// Sensor chaos perturbs the generated stream (drop/dup/stuck
		// readings, recovered out-of-order injections) before event
		// synthesis.
		s.Perturb = cfg.Chaos.PerturbStream
	}
	if cfg.Client != nil {
		s.Log = &trace.EventLog{Game: cfg.Game}
	}
	if co.guard != nil {
		s.ShadowRate = co.guard.cfg.ShadowSampleRate
	}
	tally.trace = sc.Trace
	p := dev.Play(s, tally)
	res := tally.res
	res.Events += p.Events
	res.Lookup.Merge(p.Lookup)
	co.met.events.Add(p.Events)
	co.met.unhandled.Add(p.Unhandled)
	co.met.lookups.Add(p.Lookup.Lookups)
	co.met.hits.Add(p.Lookup.Hits)
	sp := obs.StartSpan(sc, 0, "fleet.session", 0)
	sp.Service = "device"
	sp.Hit = p.Lookup.Hits > 0
	cfg.Spans.FinishWall(&sp, time.Since(sessionStart).Nanoseconds())
	return s.Log
}

// Run executes a fleet run: a shared scheduler (see scheduler.go) plays
// every device's SessionsPerDevice sessions against the shared table on
// a fixed worker pool, uploading in batches, with live OTA refreshes
// mid-run. Fleets past PerDeviceDetailMax devices report aggregates
// only (no per-device results or health rows).
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	gen, err := workload.ForWorkload(cfg.Game, cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Client != nil {
		// The overload contract needs the shared client to treat 429 as
		// retryable; everything per-device (budget, jitter, sim-time
		// sleep) rides the CallControl instead.
		cfg.Client.Retry.Retry429 = true
	}
	co := &coordinator{
		cfg:   cfg,
		met:   newFleetMetrics(cfg.Obs),
		salt:  obs.HashName("fleet/" + cfg.Game),
		rates: ledgerRates(),
	}
	co.guard = newGuard(cfg.Guard, cfg.Table, cfg.Client, co.guardControl(), cfg.Game, cfg.Obs)
	cfg.Chaos.SetMetrics(cfg.Obs)

	workers := workerCount(cfg)
	devs := make([]*schemes.Device, workers)
	for w := range devs {
		g, err := games.New(cfg.Game)
		if err != nil {
			return nil, err
		}
		devs[w] = schemes.NewDevice(g)
	}
	detail := cfg.Devices <= PerDeviceDetailMax
	results := make([]DeviceResult, cfg.Devices)
	errs := make([]error, cfg.Devices)
	var hists []*latHist // per device, detail mode only
	if detail {
		hists = make([]*latHist, cfg.Devices)
	}
	workerHists := make([]*latHist, workers)

	swapsBefore := cfg.Table.Swaps()
	rollbacksBefore := cfg.Table.Rollbacks()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wh := &latHist{}
		workerHists[w] = wh
		wg.Add(1)
		go func(dev *schemes.Device) {
			defer wg.Done()
			for {
				d := int(next.Add(1)) - 1
				if d >= cfg.Devices {
					return
				}
				hist := wh
				if detail {
					hist = &latHist{}
					hists[d] = hist
				}
				results[d], errs[d] = co.device(d, gen, dev, hist)
			}
		}(devs[w])
	}
	wg.Wait()
	wall := time.Since(start)
	// A dead device is a fleet fact, not a fleet failure: record it in
	// the device's own result and keep the survivors' run intact.
	failed := 0
	for d, err := range errs {
		if err != nil {
			results[d].Failed = true
			results[d].FailReason = err.Error()
			failed++
			co.met.failures.Inc()
		}
	}

	res := &Result{
		Game: cfg.Game, Devices: cfg.Devices, Wall: wall,
		Swaps:           cfg.Table.Swaps() - swapsBefore,
		TableVersion:    cfg.Table.Version(),
		TableGeneration: cfg.Table.Generation(),
		Rollbacks:       cfg.Table.Rollbacks() - rollbacksBefore,
		FailedDevices:   failed,
		Guard:           co.guard.snapshot(),

		OTAUpdates:       co.ota.updates,
		OTADeltaApplies:  co.ota.deltaApplies,
		OTADeltaLinks:    co.ota.deltaLinks,
		OTAFullFallbacks: co.ota.fullFallbacks,
		OTADeltaBytes:    co.ota.deltaBytes,
		OTAFullBytes:     co.ota.fullBytes,
		OTABytes:         co.ota.deltaBytes + co.ota.fullBytes,
		OTAMaxChain:      co.ota.maxChain,
	}
	if cfg.Chaos != nil {
		c := cfg.Chaos.Counts()
		res.Chaos = &c
	}
	if cfg.Client != nil {
		res.Telemetry = &TelemetryReport{}
	}
	if cfg.Energy != nil {
		res.Energy = &EnergyReport{}
	}
	if detail {
		res.PerDevice = results
	}
	merged := &latHist{}
	for d := range results {
		if detail {
			results[d].P99LookupNS = hists[d].quantile(0.99)
			merged.merge(hists[d])
		}
		dr := results[d]
		res.Sessions += dr.Sessions
		res.Events += dr.Events
		res.Lookup.Merge(dr.Lookup)
		res.Batches += dr.Batches
		res.UploadBytes += dr.UploadBytes
		res.RawBytes += dr.RawBytes
		res.Retries += dr.Retries
		res.SavedInstr += dr.SavedInstr
		res.OfferedBatches += dr.OfferedBatches
		res.BatchesShed += dr.BatchesShed
		res.BatchesDropped += dr.BatchesDropped
		res.Shed429 += dr.Shed429
		if res.Telemetry != nil {
			res.Telemetry.Records += dr.TelemetryRecords
			res.Telemetry.Batches += dr.TelemetryBatches
			res.Telemetry.UploadBytes += dr.TelemetryBytes
			res.Telemetry.Dropped += dr.TelemetryDropped
		}
		if res.Energy != nil && dr.Energy != nil {
			res.Energy.add(dr.Energy)
		}
	}
	if !detail {
		for _, wh := range workerHists {
			merged.merge(wh)
		}
	}
	res.BackoffNS = co.backoffNS.Load()
	if res.Energy != nil {
		res.Energy.ElapsedUS = int64(res.Sessions) * int64(cfg.SessionDuration)
		if res.Events > 0 {
			res.Energy.EnergyPerEventUJ = res.Energy.TotalUJ / float64(res.Events)
		}
		res.Energy.BatteryHours = energy.DefaultBattery().HoursToDrain(
			units.Energy(res.Energy.TotalUJ), units.Time(res.Energy.ElapsedUS))
	}
	if secs := wall.Seconds(); secs > 0 {
		res.LookupsPerSec = float64(res.Lookup.Lookups) / secs
	}
	res.P50LookupNS = merged.quantile(0.50)
	res.P99LookupNS = merged.quantile(0.99)
	res.Health = buildHealth(res)
	return res, nil
}
