package cloud

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"snip/internal/trace"
)

// energyRec builds one energy-bearing telemetry record whose group
// fields sum to total (all on CPU for simplicity) and whose net spend
// is total − saved.
func energyRec(device int, simUS, gen, events int64, total, saved, devTotal float64) trace.TelemetryRecord {
	return trace.TelemetryRecord{
		Device: device, SimTimeUS: simUS, Generation: gen,
		Sessions: 1, Events: events, Lookups: events, Hits: events / 2,
		EnergyUJ: total, CPUUJ: total, SavedUJ: saved,
		LookupOverheadUJ: total / 10, ElapsedUS: 10_000_000,
		DeviceTotalUJ: devTotal,
	}
}

// TestEnergyzRegressionCycle drives the energy view of /v1/fleetz
// through a regression and its rollback.
func TestEnergyzRegressionCycle(t *testing.T) {
	svc, srv := testServer(t)

	// A fleet running without the ledger has no energy view at all: its
	// generations carry no energy rollup, and the JSON no energy field.
	plain := &trace.TelemetryBatch{Game: "Pong", Records: []trace.TelemetryRecord{
		{Device: 9, SimTimeUS: 1_000_000, Generation: 1, Events: 10, Lookups: 10, Hits: 5},
	}}
	resp, body := post(t, srv.URL+"/v1/telemetry?game=Pong", telemetryWire(t, plain))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain post: %d %s", resp.StatusCode, body)
	}
	if reply := svc.Fleetz(); len(reply.Games) != 1 || len(reply.Games[0].Generations) != 1 ||
		reply.Games[0].Generations[0].Energy != nil {
		t.Fatalf("energy view without a ledger: %+v", reply.Games)
	}
	resp, body = get(t, srv.URL+"/v1/fleetz?game=Pong")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleetz: %d %s", resp.StatusCode, body)
	}
	for _, field := range []string{`"energy"`, `"energy_uj"`, `"net_per_event_uj"`, `"battery_hours"`} {
		if strings.Contains(body, field) {
			t.Fatalf("a generation without energy serializes %s:\n%s", field, body)
		}
	}

	// Generation 1 nets 5 µJ/event (10 spent, 5 credited); generation 2
	// — the poisoned live one — spends the same 10 µJ/event but its hits
	// earn no credit, so net jumps to 10. Raw spend alone cannot see the
	// regression; net can.
	batch := &trace.TelemetryBatch{Game: "Colorphun", Records: []trace.TelemetryRecord{
		energyRec(0, 10_000_000, 1, 100, 1000, 500, 1000),
		energyRec(0, 20_000_000, 2, 100, 1000, 0, 2000),
	}}
	resp, body = post(t, srv.URL+"/v1/telemetry?game=Colorphun", telemetryWire(t, batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("energy post: %d %s", resp.StatusCode, body)
	}

	resp, body = get(t, srv.URL+"/v1/fleetz?game=Colorphun")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleetz: %d %s", resp.StatusCode, body)
	}
	var reply FleetzReply
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("fleetz json: %v\n%s", err, body)
	}
	if len(reply.Games) != 1 {
		t.Fatalf("games: %+v", reply.Games)
	}
	eg := reply.Games[0]
	if eg.Game != "Colorphun" || eg.LiveGeneration != 2 || eg.PrevGeneration != 1 {
		t.Fatalf("live/prev tracking: %+v", eg)
	}
	if eg.Regression < 0.9 || eg.RegressionVerdict != "regressed" {
		t.Fatalf("regression %v verdict %q, want ~1.0 regressed", eg.Regression, eg.RegressionVerdict)
	}
	if eg.MonotoneViolations != 0 {
		t.Fatalf("unexpected monotone violations: %d", eg.MonotoneViolations)
	}
	if len(eg.Generations) != 2 || eg.Generations[0].Energy == nil || eg.Generations[1].Energy == nil {
		t.Fatalf("generations: %+v", eg.Generations)
	}
	g1, g2 := eg.Generations[0].Energy, eg.Generations[1].Energy
	if g1.NetPerEventUJ != 5 || g2.NetPerEventUJ != 10 {
		t.Fatalf("net per event: gen1=%v gen2=%v, want 5 and 10", g1.NetPerEventUJ, g2.NetPerEventUJ)
	}
	if g1.EnergyPerEventUJ != 10 || g2.EnergyPerEventUJ != 10 {
		t.Fatalf("raw spend should be identical: %v vs %v", g1.EnergyPerEventUJ, g2.EnergyPerEventUJ)
	}
	if sum := g1.SensorsUJ + g1.MemoryUJ + g1.CPUUJ + g1.IPsUJ; math.Abs(sum-g1.EnergyUJ) > 1e-9 {
		t.Fatalf("group sum %v != total %v", sum, g1.EnergyUJ)
	}
	if g1.BatteryHours <= 0 || len(g1.NetHistory) == 0 {
		t.Fatalf("battery hours / history missing: %+v", g1)
	}

	// The regression surfaces on the gauges and degrades /v1/healthz.
	snap := svc.Metrics().Snapshot()
	if v := snap.Gauges[`snip_cloud_fleet_energy_regression_permille{game="Colorphun"}`]; v < 900 {
		t.Fatalf("regression gauge %d, want ~1000", v)
	}
	if v := snap.Gauges[`snip_cloud_fleet_energy_per_event_nj{game="Colorphun"}`]; v != 10_000 {
		t.Fatalf("per-event gauge %d nJ, want 10000", v)
	}
	resp, body = get(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(body, "energy_regression_Colorphun") {
		t.Fatalf("healthz should degrade on energy regression: %d\n%s", resp.StatusCode, body)
	}

	// Rollback: the restored generation's post-rollback records arrive
	// with newer timestamps, live moves back, and the signal clears to
	// "improved" (live now cheaper than the poisoned predecessor).
	roll := &trace.TelemetryBatch{Game: "Colorphun", Records: []trace.TelemetryRecord{
		energyRec(0, 30_000_000, 1, 100, 1000, 500, 3000),
	}}
	resp, body = post(t, srv.URL+"/v1/telemetry?game=Colorphun", telemetryWire(t, roll))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback post: %d %s", resp.StatusCode, body)
	}
	eg = svc.Fleetz().Games[0]
	if eg.LiveGeneration != 1 || eg.PrevGeneration != 2 {
		t.Fatalf("rollback live/prev: %+v", eg)
	}
	if eg.Regression >= 0 || eg.RegressionVerdict != "improved" {
		t.Fatalf("post-rollback regression %v verdict %q, want improved", eg.Regression, eg.RegressionVerdict)
	}
	resp, _ = get(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz should clear after rollback: %d", resp.StatusCode)
	}
}

func TestEnergyzMonotoneViolation(t *testing.T) {
	svc, srv := testServer(t)
	batch := &trace.TelemetryBatch{Game: "Snake", Records: []trace.TelemetryRecord{
		energyRec(3, 10_000_000, 1, 10, 100, 0, 500),
		// Same device, later record, smaller cumulative total: the
		// device ledger is monotone by construction, so this is a
		// conservation break.
		energyRec(3, 20_000_000, 1, 10, 100, 0, 400),
	}}
	resp, body := post(t, srv.URL+"/v1/telemetry?game=Snake", telemetryWire(t, batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post: %d %s", resp.StatusCode, body)
	}
	eg := svc.Fleetz().Games[0]
	if eg.MonotoneViolations != 1 {
		t.Fatalf("monotone violations %d, want 1", eg.MonotoneViolations)
	}
}

// TestFleetViewErrorPaths pins the introspection endpoints' error
// contract: wrong method → 405 (the mux's method patterns), bad filter
// parameters → 400 — same style as the upload rejection tests. The
// retired /v1/energyz is not served at all.
func TestFleetViewErrorPaths(t *testing.T) {
	_, srv := testServer(t)
	if resp, body := get(t, srv.URL+"/v1/energyz"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/energyz: %d %s, want 404", resp.StatusCode, body)
	}
	for _, ep := range []string{"/v1/fleetz", "/v1/shardz"} {
		resp, _ := post(t, srv.URL+ep, strings.NewReader(""))
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: %d, want 405", ep, resp.StatusCode)
		}
	}
	for _, u := range []string{
		"/v1/fleetz?game=",
		"/v1/fleetz?limit=0", "/v1/fleetz?limit=bogus", "/v1/fleetz?limit=-3",
	} {
		resp, body := get(t, srv.URL+u)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: %d %s, want 400", u, resp.StatusCode, body)
		}
	}
}

// TestFleetzLimit pins the ?limit= cap: newest generations retained,
// counting every retained generation whether or not it carries energy.
func TestFleetzLimit(t *testing.T) {
	_, srv := testServer(t)
	batch := &trace.TelemetryBatch{Game: "Colorphun", Records: []trace.TelemetryRecord{
		energyRec(0, 10_000_000, 1, 10, 100, 50, 100),
		energyRec(0, 20_000_000, 2, 10, 100, 50, 200),
		{Device: 0, SimTimeUS: 30_000_000, Generation: 3, Events: 10, Lookups: 10, Hits: 5},
	}}
	resp, body := post(t, srv.URL+"/v1/telemetry?game=Colorphun", telemetryWire(t, batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, srv.URL+"/v1/fleetz?game=Colorphun&limit=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleetz: %d %s", resp.StatusCode, body)
	}
	var reply FleetzReply
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Games) != 1 || len(reply.Games[0].Generations) != 2 {
		t.Fatalf("limit not applied: %+v", reply.Games)
	}
	if g := reply.Games[0].Generations; g[0].Generation != 2 || g[1].Generation != 3 ||
		g[0].Energy == nil || g[1].Energy != nil {
		t.Fatalf("kept wrong generations: %+v", g)
	}
}
