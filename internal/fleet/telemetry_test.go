package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"snip/internal/chaos"
	"snip/internal/cloud"
	"snip/internal/memo"
	"snip/internal/obs"
)

// TestFleetClientDoesNotPerturbRun pins the determinism contract of the
// device→cloud protocol: a fleet with a cloud client uploads, folds and
// ships telemetry and carries the overload contract, yet computes
// exactly what the same fleet without a client does — sessions, events,
// lookups, hits and the SavedInstr energy proxy are byte-identical. (No
// OTA refresh here, so hit counts are seed-deterministic and
// comparable.)
func TestFleetClientDoesNotPerturbRun(t *testing.T) {
	_, _, client, table := bootCloud(t)
	run := func(client *cloud.Client) *Result {
		res, err := Run(Config{
			Game: testGame, Devices: 4, SessionsPerDevice: 2,
			SessionDuration: testDur, SeedBase: 6000,
			Table: memo.NewShared(table), Client: client, BatchSize: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(nil)
	on := run(client)
	if off.Sessions != on.Sessions || off.Events != on.Events ||
		off.Lookup != on.Lookup {
		t.Fatalf("the client perturbed the run:\n off: %+v\n on: %+v", off.Lookup, on.Lookup)
	}
	for d := range off.PerDevice {
		a, b := off.PerDevice[d], on.PerDevice[d]
		if a.SavedInstr != b.SavedInstr || a.Events != b.Events || a.Lookup != b.Lookup {
			t.Fatalf("device %d diverged:\n off: %+v\n on: %+v", d, a, b)
		}
	}
	if off.Telemetry != nil || off.OfferedBatches != 0 {
		t.Fatalf("a run without a client reports shipping: %+v, %d batches", off.Telemetry, off.OfferedBatches)
	}
	if on.Batches != on.OfferedBatches || on.Batches == 0 {
		t.Fatalf("client run accepted %d of %d batches", on.Batches, on.OfferedBatches)
	}
	if on.Telemetry == nil || on.Telemetry.Records == 0 || on.Telemetry.Batches == 0 {
		t.Fatalf("client run shipped no telemetry: %+v", on.Telemetry)
	}
	if on.Telemetry.Dropped != 0 {
		t.Fatalf("healthy cloud dropped %d records", on.Telemetry.Dropped)
	}
}

// TestFleetTelemetryReachesCloud checks the full pipeline: device folds
// land in the cloud aggregator with the right totals, windowed per-
// generation rollups, and fleet gauges.
func TestFleetTelemetryReachesCloud(t *testing.T) {
	svc, _, client, table := bootCloud(t)
	reg := obs.NewRegistry()
	res, err := Run(Config{
		Game: testGame, Devices: 4, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 7000,
		Table: memo.NewShared(table), Client: client, BatchSize: 1,
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	fz := svc.Fleetz()
	if len(fz.Games) != 1 || fz.Games[0].Game != testGame {
		t.Fatalf("fleetz games: %+v", fz.Games)
	}
	if fz.Records != res.Telemetry.Records {
		t.Fatalf("cloud folded %d records, fleet shipped %d", fz.Records, res.Telemetry.Records)
	}
	fg := fz.Games[0]
	if fg.LiveGeneration != 1 || len(fg.Generations) != 1 {
		t.Fatalf("expected one live generation: %+v", fg)
	}
	g := fg.Generations[0]
	if g.Sessions != int64(res.Sessions) || g.Events != res.Events ||
		g.Lookups != res.Lookup.Lookups || g.Hits != res.Lookup.Hits {
		t.Fatalf("rollup totals diverge from the run:\n cloud: %+v\n fleet: %+v", g, res)
	}
	if g.Devices != 4 {
		t.Fatalf("devices %d, want 4", g.Devices)
	}
	if len(g.HitHistory) == 0 || g.WindowedHitRate <= 0 {
		t.Fatalf("no windowed history: %+v", g)
	}
	// Fleet-side counters mirror the report.
	snap := reg.Snapshot()
	if snap.Counters["snip_fleet_telemetry_records_total"] != res.Telemetry.Records ||
		snap.Counters["snip_fleet_telemetry_batches_total"] != res.Telemetry.Batches ||
		snap.Counters["snip_fleet_telemetry_bytes_total"] != int64(res.Telemetry.UploadBytes) {
		t.Fatalf("fleet telemetry counters off: %+v vs %+v", snap.Counters, res.Telemetry)
	}
	// Ingest-pressure gauge exists and is sane (occupancy in [0,1000]).
	p := svc.Metrics().Snapshot().Gauges[`snip_cloud_fleet_ingest_pressure_permille{game="`+testGame+`"}`]
	if p < 0 || p > 1000 {
		t.Fatalf("pressure gauge %d out of range", p)
	}
}

// TestFleetTelemetryReproducible pins that telemetry carries only
// simulated quantities: two identical no-OTA fleets, each against its
// own fresh cloud, ship the same telemetry bytes, and the cloud rolls
// them into the same /v1/fleetz view. Every integer field must match
// exactly. The float fields are sums the cloud folds in record arrival
// order, which the devices' goroutine schedule decides, so they may
// differ in their last bits; they must match within floatOrderTol.
func TestFleetTelemetryReproducible(t *testing.T) {
	run := func() (*Result, cloud.FleetzReply) {
		svc, _, client, table := bootCloud(t)
		res, err := Run(Config{
			Game: testGame, Devices: 4, SessionsPerDevice: 2,
			SessionDuration: testDur, SeedBase: 7500,
			Table: memo.NewShared(table), Client: client, BatchSize: 2,
			Energy: &EnergyConfig{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, svc.Fleetz()
	}
	resA, fzA := run()
	resB, fzB := run()
	if resA.Telemetry == nil || resA.Telemetry.Records == 0 {
		t.Fatalf("no telemetry shipped: %+v", resA.Telemetry)
	}
	if a, b := resA.Telemetry, resB.Telemetry; *a != *b {
		t.Fatalf("telemetry differs between identical runs: %d vs %d B, %d vs %d records, %d vs %d batches",
			a.UploadBytes.Bytes(), b.UploadBytes.Bytes(), a.Records, b.Records, a.Batches, b.Batches)
	}
	if view, err := json.Marshal(fzA); err != nil || len(fzA.Games) != 1 || !strings.Contains(string(view), `"energy_uj"`) {
		t.Fatalf("no energy-bearing rollup to compare (%v): %+v", err, fzA.Games)
	}
	// Summing n terms in another order moves the result by at most
	// (n−1)·2⁻⁵³ of the sum of their magnitudes. Every float here is such
	// a sum over at most fz.Records terms, all of one sign, or a ratio of
	// one to an integer (one more rounding), so a relative bound of
	// (records+2)·2⁻⁵² holds with room to spare; a real difference in
	// what the devices shipped moves a field by far more.
	tol := float64(fzA.Records+2) * 0x1p-52
	var diffs []string
	compareView(reflect.ValueOf(fzA), reflect.ValueOf(fzB), "fleetz", tol, &diffs)
	if len(diffs) > 0 {
		t.Fatalf("/v1/fleetz differs between identical runs:\n%s", strings.Join(diffs, "\n"))
	}
}

// compareView walks two values of one type and records every integer,
// string or bool field that differs, and every float field that differs
// by more than the relative tolerance tol.
func compareView(a, b reflect.Value, path string, tol float64, diffs *[]string) {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			*diffs = append(*diffs, fmt.Sprintf("%s: nil %v vs %v", path, a.IsNil(), b.IsNil()))
		} else if !a.IsNil() {
			compareView(a.Elem(), b.Elem(), path, tol, diffs)
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			compareView(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name, tol, diffs)
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			*diffs = append(*diffs, fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len()))
			return
		}
		for i := 0; i < a.Len(); i++ {
			compareView(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), tol, diffs)
		}
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if math.Abs(x-y) > tol*math.Max(math.Abs(x), math.Abs(y)) {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v vs %v", path, x, y))
		}
	default:
		if !a.Equal(b) {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v vs %v", path, a, b))
		}
	}
}

// TestFleetTelemetryBestEffort: a dead cloud mid-run must not kill the
// device — telemetry records are dropped and counted, serving and the
// run result stay intact. (The cloud is closed after boot, so every
// upload fails at the transport too.)
func TestFleetTelemetryBestEffort(t *testing.T) {
	_, srv, client, table := bootCloud(t)
	srv.Close() // telemetry (and uploads) now fail at the transport
	res, err := Run(Config{
		Game: testGame, Devices: 2, SessionsPerDevice: 1,
		SessionDuration: testDur, SeedBase: 8000,
		Table: memo.NewShared(table), Client: client, BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The failed uploads are booked dropped and the devices play on;
	// telemetry records are still folded and their loss is accounted,
	// never silent.
	if res.FailedDevices != 0 || res.BatchesDropped != res.OfferedBatches || res.OfferedBatches != 2 {
		t.Fatalf("dead cloud: %d failed devices, %d of %d batches dropped, want 0 and 2 of 2",
			res.FailedDevices, res.BatchesDropped, res.OfferedBatches)
	}
	if res.Telemetry == nil || res.Telemetry.Records == 0 {
		t.Fatalf("no records folded: %+v", res.Telemetry)
	}
	if res.Telemetry.Dropped != res.Telemetry.Records {
		t.Fatalf("dropped %d of %d records, want all",
			res.Telemetry.Dropped, res.Telemetry.Records)
	}
	if res.Telemetry.Batches != 0 {
		t.Fatal("batches shipped to a dead cloud")
	}
	if res.Lookup.Lookups == 0 {
		t.Fatal("serving stopped because telemetry failed")
	}
}

// failFirst wraps h so that the first request to path answers 503.
func failFirst(h http.Handler, path string) http.Handler {
	var failed atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == path && failed.CompareAndSwap(false, true) {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestFleetTelemetryRetryBacksOffOnSimulatedTime: a telemetry flush the
// cloud answers 503 retries under the device's own call control, so its
// backoff is booked as simulated BackoffNS instead of slept on the wall,
// and the retried batch ships: nothing is dropped.
func TestFleetTelemetryRetryBacksOffOnSimulatedTime(t *testing.T) {
	svc, _, _, table := bootCloud(t)
	srv := httptest.NewServer(failFirst(svc.Handler(), "/v1/telemetry"))
	t.Cleanup(srv.Close)
	res, err := Run(Config{
		Game: testGame, Devices: 2, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 8100,
		Table: memo.NewShared(table), Client: cloud.NewClient(srv.URL), BatchSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BackoffNS <= 0 || res.Retries == 0 {
		t.Fatalf("a 503 on telemetry left backoff %dns after %d retries, want both > 0", res.BackoffNS, res.Retries)
	}
	if tel := res.Telemetry; tel == nil || tel.Batches == 0 || tel.Dropped != 0 {
		t.Fatalf("retried telemetry: %+v, want shipped with 0 dropped", tel)
	}
	if res.BatchesDropped != 0 || res.FailedDevices != 0 {
		t.Fatalf("a telemetry outage cost %d batches and %d devices", res.BatchesDropped, res.FailedDevices)
	}
}

// TestFleetTelemetryDriftCycle is the acceptance scenario: a poisoned
// OTA generation goes live, telemetry carries its shadow-mispredict
// tallies to the cloud, the drift signal shows the regression (the
// poisoned table's *raw* hit rate is unchanged — only the effective
// rate collapses), the guard rolls back, and the post-rollback records
// move the live generation back so the drift gauge recovers.
//
// One device only: with several devices the shared rollback's timing
// decides which sim-time slice of each device's run lands on the
// poisoned generation, so per-generation hit rates vary with goroutine
// scheduling. A single device trips, rolls back and recovers in a
// fully deterministic order.
func TestFleetTelemetryDriftCycle(t *testing.T) {
	svc, _, client, table := bootCloud(t)

	inj := chaos.New(chaos.Profile{Name: "table", Seed: 7, TablePoisonRate: 1.0})
	poisoned, n := inj.MaybePoisonTable(table)
	if n == 0 {
		t.Fatal("poisoning corrupted nothing")
	}
	shared := memo.NewShared(table)
	if gen := shared.Swap(poisoned); gen != 2 {
		t.Fatalf("poisoned swap got generation %d, want 2", gen)
	}

	// The evidence floor is set high enough that the poisoned generation
	// serves a full session before the trip: its windowed hit rate then
	// reflects the same workload slice as the clean generation's instead
	// of a handful of unrepresentative startup events.
	res, err := Run(Config{
		Game: testGame, Devices: 1, SessionsPerDevice: 4,
		SessionDuration: testDur, SeedBase: 9000,
		Table: shared, Client: client, BatchSize: 1,
		Guard: &GuardConfig{
			ShadowSampleRate: 1.0, MaxMispredictRatio: 0.05, MinShadowSamples: 200,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rollbacks != 1 {
		t.Fatalf("rollbacks %d, want 1", res.Rollbacks)
	}

	fz := svc.Fleetz()
	if len(fz.Games) != 1 {
		t.Fatalf("fleetz games: %+v", fz.Games)
	}
	fg := fz.Games[0]
	var g1, g2 *cloud.FleetzGeneration
	for i := range fg.Generations {
		switch fg.Generations[i].Generation {
		case 1:
			g1 = &fg.Generations[i]
		case 2:
			g2 = &fg.Generations[i]
		}
	}
	if g1 == nil || g2 == nil {
		t.Fatalf("missing generation rollups: %+v", fg.Generations)
	}
	// The poisoned generation's keys still match, so its raw hit rate
	// holds up — the regression only shows once the mispredict ratio is
	// folded in. (Only entries with outputs are poisoned, so the ratio
	// is well below 1, but decisively above the clean generation's and
	// above the guard's 5% trip threshold.)
	if g2.WindowedMispredict <= g1.WindowedMispredict || g2.WindowedMispredict <= 0.05 {
		t.Fatalf("poisoned generation mispredict ratio %v vs clean %v, want a clear gap",
			g2.WindowedMispredict, g1.WindowedMispredict)
	}
	if g2.EffectiveHitRate >= g1.EffectiveHitRate {
		t.Fatalf("effective hit rate did not collapse: gen1=%v gen2=%v",
			g1.EffectiveHitRate, g2.EffectiveHitRate)
	}
	// Post-rollback records moved the live generation back to 1, so the
	// drift signal reads negative: the live generation out-performs the
	// (poisoned) one it displaced — recovery.
	if fg.LiveGeneration != 1 || fg.PrevGeneration != 2 {
		t.Fatalf("live/prev after rollback: live=%d prev=%d, want 1/2",
			fg.LiveGeneration, fg.PrevGeneration)
	}
	if fg.Drift >= 0 || fg.DriftVerdict != "recovered" {
		t.Fatalf("drift %v verdict %q, want negative and recovered", fg.Drift, fg.DriftVerdict)
	}
	if v := svc.Metrics().Snapshot().Gauges[`snip_cloud_fleet_drift_permille{game="`+testGame+`"}`]; v >= 0 {
		t.Fatalf("drift gauge %d, want negative after recovery", v)
	}
}
