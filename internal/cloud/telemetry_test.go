package cloud

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"snip/internal/obs"
	"snip/internal/trace"
)

func telemetryWire(t *testing.T, b *trace.TelemetryBatch) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeTelemetry(&buf, b); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

func TestTelemetryEndpointAndFleetz(t *testing.T) {
	svc, srv := testServer(t)
	batch := &trace.TelemetryBatch{Game: "Colorphun", Records: []trace.TelemetryRecord{
		{Device: 0, SimTimeUS: 10_000_000, Generation: 1,
			Sessions: 1, Events: 100, Lookups: 100, Hits: 80,
			ShadowChecks: 10, SavedInstr: 2400,
			QueueDepth: 1, QueueCap: 4, TelemetryCap: 8},
		{Device: 1, SimTimeUS: 20_000_000, Generation: 2,
			Sessions: 1, Events: 100, Lookups: 100, Hits: 80,
			ShadowChecks: 10, Mispredicts: 9, QueueCap: 4, TelemetryCap: 8},
	}}
	resp, body := post(t, srv.URL+"/v1/telemetry?game=Colorphun", telemetryWire(t, batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("telemetry post: %d %s", resp.StatusCode, body)
	}

	resp, body = get(t, srv.URL+"/v1/fleetz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleetz: %d %s", resp.StatusCode, body)
	}
	var reply FleetzReply
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("fleetz json: %v\n%s", err, body)
	}
	if reply.Batches != 1 || reply.Records != 2 || len(reply.Games) != 1 {
		t.Fatalf("fleetz totals: %+v", reply)
	}
	fg := reply.Games[0]
	if fg.Game != "Colorphun" || fg.LiveGeneration != 2 || fg.PrevGeneration != 1 {
		t.Fatalf("live/prev tracking: %+v", fg)
	}
	if len(fg.Generations) != 2 {
		t.Fatalf("generations: %+v", fg.Generations)
	}
	// Generation 2 serves the same raw hit rate but mispredicts 90% of
	// its shadow checks, so its effective hit rate collapses and the
	// drift signal reads the regression raw hit rate cannot see.
	g1, g2 := fg.Generations[0], fg.Generations[1]
	if g1.HitRate != g2.HitRate {
		t.Fatalf("raw hit rates should match: %v vs %v", g1.HitRate, g2.HitRate)
	}
	if g2.EffectiveHitRate >= g1.EffectiveHitRate {
		t.Fatalf("effective hit rate should collapse under mispredicts: gen1=%v gen2=%v",
			g1.EffectiveHitRate, g2.EffectiveHitRate)
	}
	if fg.Drift <= driftThreshold || fg.DriftVerdict != "drifting" {
		t.Fatalf("drift %v verdict %q, want drifting", fg.Drift, fg.DriftVerdict)
	}
	if len(g1.HitHistory) == 0 {
		t.Fatal("no hit history retained for sparklines")
	}

	// The derived signals surface as /v1/metrics gauges.
	snap := svc.Metrics().Snapshot()
	if v := snap.Gauges[`snip_cloud_fleet_drift_permille{game="Colorphun"}`]; v <= 0 {
		t.Fatalf("drift gauge %d, want positive (regression)", v)
	}
	if snap.Counters["snip_cloud_telemetry_batches_total"] != 1 ||
		snap.Counters["snip_cloud_telemetry_records_total"] != 2 {
		t.Fatal("telemetry ingest counters off")
	}
}

func TestTelemetryEndpointRejections(t *testing.T) {
	svc, srv := testServer(t)
	// Missing game.
	resp, _ := post(t, srv.URL+"/v1/telemetry",
		telemetryWire(t, &trace.TelemetryBatch{Game: "Colorphun", Records: make([]trace.TelemetryRecord, 1)}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing game: %d", resp.StatusCode)
	}
	// Corrupt body.
	resp, _ = post(t, srv.URL+"/v1/telemetry?game=Colorphun", strings.NewReader("SNIPTEL1garbage"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt body: %d", resp.StatusCode)
	}
	// Game mismatch.
	resp, _ = post(t, srv.URL+"/v1/telemetry?game=Other",
		telemetryWire(t, &trace.TelemetryBatch{Game: "Colorphun", Records: make([]trace.TelemetryRecord, 1)}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("game mismatch: %d", resp.StatusCode)
	}
	// Empty batch.
	resp, _ = post(t, srv.URL+"/v1/telemetry?game=Colorphun",
		telemetryWire(t, &trace.TelemetryBatch{Game: "Colorphun"}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", resp.StatusCode)
	}
	if n := svc.Metrics().Snapshot().Counters["snip_cloud_uploads_rejected_corrupt_total"]; n != 1 {
		t.Fatalf("corrupt rejections %d, want 1", n)
	}
}

func TestTelemetryAggregatorBounds(t *testing.T) {
	a := newTelemetryAggregator()
	rec := func(gen, tUS int64) []trace.TelemetryRecord {
		return []trace.TelemetryRecord{{SimTimeUS: tUS, Generation: gen, Lookups: 10, Hits: 5}}
	}
	// Game cap: the 65th distinct game is refused.
	for i := 0; i < maxTelemetryGames; i++ {
		if !a.ingest(string(rune('a'+i%26))+string(rune('0'+i/26)), rec(1, 1)) {
			t.Fatalf("game %d rejected under the cap", i)
		}
	}
	if a.ingest("overflow", rec(1, 1)) {
		t.Fatal("game cap not enforced")
	}
	// Generation cap: only the newest generations are retained.
	b := newTelemetryAggregator()
	for gen := int64(1); gen <= maxTelemetryGenerations+3; gen++ {
		b.ingest("g", rec(gen, gen*1_000_000))
	}
	gt := b.games["g"]
	if len(gt.gens) != maxTelemetryGenerations {
		t.Fatalf("retained %d generations, want %d", len(gt.gens), maxTelemetryGenerations)
	}
	if _, ok := gt.gens[1]; ok {
		t.Fatal("lowest generation not evicted")
	}
	if _, ok := gt.gens[maxTelemetryGenerations+3]; !ok {
		t.Fatal("newest generation missing")
	}
}

func TestBuildInfoGauge(t *testing.T) {
	_, srv := testServer(t)
	_, body := get(t, srv.URL+"/v1/metrics")
	if !strings.Contains(body, "# TYPE snip_build_info gauge") {
		t.Fatal("snip_build_info missing TYPE line")
	}
	if !strings.Contains(body, `snip_build_info{layout_version="1",tables="flat"} 1`) {
		t.Fatalf("flat tables not reported:\n%s", body)
	}
}

func TestUploadTelemetryClient(t *testing.T) {
	svc, srv := testServer(t)
	c := NewClient(srv.URL)
	recs := []trace.TelemetryRecord{{Device: 2, SimTimeUS: 5_000_000, Generation: 1, Lookups: 4, Hits: 2}}
	br, err := c.UploadTelemetry("Colorphun", recs, obs.SpanContext{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if br.Wire == 0 {
		t.Fatal("no wire bytes reported")
	}
	if got := svc.Fleetz().Records; got != 1 {
		t.Fatalf("cloud folded %d records, want 1", got)
	}
}
