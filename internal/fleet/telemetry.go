package fleet

import (
	"snip/internal/obs"
	"snip/internal/units"
)

// Device-side telemetry: each device folds its per-table-generation
// tallies (see deviceTally) into compact trace.TelemetryRecords at
// session boundaries and ships them to the cloud over POST
// /v1/telemetry, piggyback-flushed alongside the upload batches so
// telemetry adds no extra connection churn. Every run with a cloud
// client ships it. The pipeline is deliberately decoupled from
// correctness:
//
//   - It consumes no randomness and reads no wall-clock — record
//     timestamps are the deterministic simulated session clock — so a
//     run with a client produces byte-identical game results, lookups
//     and energy tallies to one without (pinned by
//     TestFleetClientDoesNotPerturbRun).
//   - Shipping is best-effort. A failed telemetry upload drops the
//     records (counted in TelemetryDropped) and the device plays on;
//     telemetry must never kill a device that is serving fine.

// telemetryFlushRecords is how many folded records a device buffers
// before shipping a telemetry batch. A forced flush at device end ships
// whatever remains.
const telemetryFlushRecords = 8

// TelemetryReport aggregates the fleet's telemetry-shipping outcome.
type TelemetryReport struct {
	// Records were folded; Batches/UploadBytes what shipping them cost.
	Records     int64      `json:"records"`
	Batches     int64      `json:"batches"`
	UploadBytes units.Size `json:"upload_bytes"`
	// Dropped counts records lost to failed telemetry uploads —
	// best-effort by design, so drops degrade visibility, not serving.
	Dropped int64 `json:"dropped"`
}

// flush ships the pending records if the buffer is full (or force).
// Best-effort: a failed upload drops the records and the device plays
// on — serving health must not depend on telemetry health.
func (t *deviceTally) flush(force bool) {
	if len(t.pending) == 0 || (!force && len(t.pending) < telemetryFlushRecords) {
		return
	}
	res := t.res
	// The batch gets its own deterministic trace root, salted off the
	// device index so the cloud-side ingest spans of different devices
	// land in different traces.
	sc := obs.Root(obs.NewTraceID(uint64(t.device), t.co.salt^obs.HashName("telemetry")))
	br, err := t.co.cfg.Client.UploadTelemetry(t.co.cfg.Game, t.pending, sc, t.ctl)
	res.Retries += br.Retries
	if err != nil {
		res.TelemetryDropped += int64(len(t.pending))
		t.co.met.telDropped.Add(int64(len(t.pending)))
	} else {
		res.TelemetryBatches++
		res.TelemetryBytes += br.Wire
		t.co.met.telBatches.Inc()
		t.co.met.telBytes.Add(int64(br.Wire))
	}
	t.pending = t.pending[:0]
}
