package trace

import "io"

// Telemetry wire format. Devices periodically fold their tallies into
// compact TelemetryRecords and ship them to the cloud over
// POST /v1/telemetry as SNIPTEL1 frames — the same trailer-guarded
// magic + gzip + CRC32 framing as SNIPBTCH3 session batches, with a gob
// body, so the telemetry path inherits the batch codec's corruption and
// gzip-bomb defenses (and its error sentinels: ErrBatchChecksum,
// ErrBatchTooLarge).
//
// The record lives here rather than in internal/fleet so both ends of
// the wire (fleet devices encode, cloud decodes) can share it without
// an import cycle.

// TelemetryRecord is one device's folded tally for one table
// generation over one reporting interval. All times are simulated
// (deterministic) — never wall-clock — so telemetry never perturbs
// paper figures.
type TelemetryRecord struct {
	// Device is the reporting device's fleet index.
	Device int
	// SimTimeUS is the simulated-clock timestamp (microseconds) the
	// record was folded at; the cloud buckets windowed rollups by it.
	SimTimeUS int64
	// Generation is the memo-table generation the tallies below were
	// observed against.
	Generation int64

	// Sessions/Events/Lookups/Hits are interval tallies; Hits/Lookups
	// is the raw per-generation hit rate.
	Sessions int64
	Events   int64
	Lookups  int64
	Hits     int64

	// ShadowChecks/Mispredicts are the guard's sampled shadow-verify
	// tallies; Mispredicts/ShadowChecks is the mispredict ratio the
	// drift signal folds into the effective hit rate.
	ShadowChecks int64
	Mispredicts  int64

	// SavedInstr is the interval's saved-instruction energy proxy.
	SavedInstr int64
	// P99LookupNS is the interval's p99 lookup latency in nanoseconds,
	// over the 1 in 16 probes a session times (0 when none of the
	// interval's probes was timed).
	P99LookupNS int64

	// Retries counts transport retries the device burned this interval.
	Retries int64
	// QueueDepth/QueueCap describe the device's pending upload queue;
	// TelemetryPending/TelemetryCap the pending telemetry queue. The
	// cloud's ingest-pressure signal is windowed occupancy over both.
	QueueDepth       int64
	QueueCap         int64
	TelemetryPending int64
	TelemetryCap     int64

	// Energy attribution (all values modeled µJ from the device's
	// energy ledger; zero when the ledger is disabled). New fields on
	// the SNIPTEL1 frame are wire-compatible: gob decodes frames
	// missing them to zero values. EnergyUJ is the interval's charged
	// total on this generation and equals the sum of the four Fig. 2
	// group fields.
	EnergyUJ  float64
	SensorsUJ float64
	MemoryUJ  float64
	CPUUJ     float64
	IPsUJ     float64
	// Cause buckets: overhead of table probes/compares, sampled
	// shadow-verify executions, the short-circuit credit (handler
	// energy verified hits avoided — never part of EnergyUJ), and
	// energy spent on events that changed no state.
	LookupOverheadUJ float64
	ShadowVerifyUJ   float64
	SavedUJ          float64
	WastedUJ         float64
	// ElapsedUS is the simulated time attributed to this generation
	// this interval (session duration split by event share); the cloud
	// extrapolates battery-hours from ΣEnergyUJ over ΣElapsedUS.
	ElapsedUS int64
	// DeviceTotalUJ is the device's cumulative ledger total at fold
	// time — monotone per device, which the cloud and fleetbench
	// -validate use as a conservation check on shipped records.
	DeviceTotalUJ float64
}

// TelemetryBatch is the unit of POST /v1/telemetry: one game's worth
// of records from one device flush.
type TelemetryBatch struct {
	Game    string
	Records []TelemetryRecord
}

// DefaultMaxDecodedTelemetry caps how many decompressed bytes
// DecodeTelemetry will produce — telemetry records are tiny, so the
// cap is far below the session-batch one.
const DefaultMaxDecodedTelemetry = 4 << 20

// EncodeTelemetry writes a telemetry batch as SNIPTEL1 magic +
// gzip(gob) + CRC32 trailer — the wire form of POST /v1/telemetry.
func EncodeTelemetry(w io.Writer, b *TelemetryBatch) error {
	return encodeGobFrame(w, magicTelemetry, "telemetry", b)
}

// DecodeTelemetry reads a telemetry batch written by EncodeTelemetry,
// capping the decompressed size at DefaultMaxDecodedTelemetry.
func DecodeTelemetry(r io.Reader) (*TelemetryBatch, error) {
	return DecodeTelemetryLimit(r, DefaultMaxDecodedTelemetry)
}

// DecodeTelemetryLimit reads a telemetry batch, verifying the
// mandatory CRC32 trailer and refusing to decompress more than
// maxDecoded bytes. Error semantics match DecodeBatchLimit: truncated
// or corrupt input wraps ErrBatchChecksum, oversized input
// ErrBatchTooLarge. It never panics,
// whatever the input (pinned by FuzzDecodeTelemetry).
func DecodeTelemetryLimit(r io.Reader, maxDecoded int64) (*TelemetryBatch, error) {
	if maxDecoded <= 0 {
		maxDecoded = DefaultMaxDecodedTelemetry
	}
	var b TelemetryBatch
	if err := decodeGobFrame(r, magicTelemetry, "telemetry", maxDecoded, &b); err != nil {
		return nil, err
	}
	return &b, nil
}
