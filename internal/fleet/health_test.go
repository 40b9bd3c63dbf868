package fleet

import (
	"net/http"
	"sync"
	"testing"

	"snip/internal/memo"
	"snip/internal/obs"
)

// TestSLOVerdicts pins the judgment logic against hand-built results:
// every run gets the same six verdicts, in order, against the fixed
// envelope.
func TestSLOVerdicts(t *testing.T) {
	healthy := &Result{
		Lookup:      memo.LookupStats{Lookups: 100, Hits: 80},
		P99LookupNS: 500, Batches: 10, Retries: 5,
	}
	h := buildHealth(healthy)
	if !h.Healthy {
		t.Fatalf("healthy result judged unhealthy: %+v", h.Verdicts)
	}
	want := []struct {
		name      string
		threshold float64
	}{
		{"hit_rate", 0.05},
		{"p99_lookup_ns", 1 << 20},
		{"retries_per_batch", 1.0},
		{"mispredict_ratio", 0.10},
		{"saved_energy_fraction", 0.02},
		{"failed_devices", 0.5},
	}
	if len(h.Verdicts) != len(want) {
		t.Fatalf("got %d verdicts, want %d", len(h.Verdicts), len(want))
	}
	for i, w := range want {
		if v := h.Verdicts[i]; v.Name != w.name || v.Threshold != w.threshold {
			t.Errorf("verdict %d = %s at %v, want %s at %v", i, v.Name, v.Threshold, w.name, w.threshold)
		}
	}
	if h.HitRate != 0.8 || h.RetriesPerBatch != 0.5 {
		t.Fatalf("hit rate %.2f retries/batch %.2f", h.HitRate, h.RetriesPerBatch)
	}

	for name, bad := range map[string]*Result{
		"hit_rate":          {Lookup: memo.LookupStats{Lookups: 100, Hits: 1}, P99LookupNS: 500},
		"p99_lookup_ns":     {Lookup: memo.LookupStats{Lookups: 100, Hits: 80}, P99LookupNS: 1 << 21},
		"retries_per_batch": {Lookup: memo.LookupStats{Lookups: 100, Hits: 80}, P99LookupNS: 500, Batches: 2, Retries: 9},
		"mispredict_ratio": {Lookup: memo.LookupStats{Lookups: 100, Hits: 80}, P99LookupNS: 500,
			Guard: &GuardReport{ShadowChecks: 20, Mispredicts: 5}},
		"failed_devices": {Lookup: memo.LookupStats{Lookups: 100, Hits: 80}, P99LookupNS: 500,
			Devices: 4, FailedDevices: 3},
	} {
		h := buildHealth(bad)
		if h.Healthy {
			t.Errorf("%s breach judged healthy", name)
		}
		var failed string
		for _, v := range h.Verdicts {
			if !v.OK {
				failed = v.Name
				if v.Detail == "" {
					t.Errorf("%s: failing verdict carries no detail", name)
				}
			}
		}
		if failed != name {
			t.Errorf("failing verdict %q, want %q", failed, name)
		}
	}

	// Vacuous pass: nothing probed, nothing uploaded — nothing to judge.
	h = buildHealth(&Result{})
	if !h.Healthy {
		t.Fatal("idle run judged unhealthy")
	}
}

// TestFleetTracePropagation is the cross-process half of the tentpole:
// a fleet run's batch upload must surface a cloud-side ingest span under
// the SAME deterministic trace ID the device derived from its session
// seed, parent-linked to the device-side root span.
func TestFleetTracePropagation(t *testing.T) {
	svc, _, client, table := bootCloud(t)

	spans := obs.NewSpanBuffer(obs.DefaultSpanCapacity)
	res, err := Run(Config{
		Game: testGame, Devices: 2, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 4000,
		Table: memo.NewShared(table), Client: client, BatchSize: 2,
		Spans: spans,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Device side: one session span per session, one upload span per batch.
	var sessions, uploads int
	for _, sp := range spans.Spans() {
		switch sp.Name {
		case "fleet.session":
			sessions++
			if sp.Service != "device" || sp.Parent != 0 {
				t.Errorf("session span %+v: want device-service root", sp)
			}
		case "upload.batch":
			uploads++
		}
	}
	if sessions != res.Sessions {
		t.Errorf("%d session spans, want %d", sessions, res.Sessions)
	}
	if uploads != res.Batches {
		t.Errorf("%d upload spans, want %d", uploads, res.Batches)
	}

	// The batch trace is derived from the batch's first session seed.
	salt := obs.HashName("fleet/" + testGame)
	wantCtx := obs.Root(obs.NewTraceID(4000, salt))

	var ingest *obs.Span
	for _, sp := range svc.Spans().Spans() {
		if sp.Trace == wantCtx.Trace {
			s := sp
			ingest = &s
		}
	}
	if ingest == nil {
		t.Fatalf("cloud recorded no span under device trace %s", wantCtx.Trace)
	}
	if ingest.Name != "cloud.upload-batch" || ingest.Service != "cloud" {
		t.Errorf("ingest span %q/%q, want cloud.upload-batch/cloud", ingest.Name, ingest.Service)
	}
	if ingest.Parent != wantCtx.Span {
		t.Errorf("ingest span parent %s, want device root span %s", ingest.Parent, wantCtx.Span)
	}
}

// TestFleetHealthRollup checks Run always judges itself: a trained-table
// run is healthy, saves handler instructions, and reports per-device
// health.
func TestFleetHealthRollup(t *testing.T) {
	_, _, client, table := bootCloud(t)
	res, err := Run(Config{
		Game: testGame, Devices: 3, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 5000,
		Table: memo.NewShared(table), Client: client, BatchSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Health
	if h == nil {
		t.Fatal("Run returned no health snapshot")
	}
	if !h.Healthy {
		t.Fatalf("trained-table run unhealthy: %+v", h.Verdicts)
	}
	if h.SavedInstr <= 0 {
		t.Fatal("no handler instructions saved despite hits")
	}
	if len(h.Devices) != 3 {
		t.Fatalf("%d device health entries, want 3", len(h.Devices))
	}
	var devSaved int64
	for _, dh := range h.Devices {
		devSaved += dh.SavedInstr
		if dh.HitRate <= 0 {
			t.Errorf("device %d: zero hit rate against trained table", dh.Device)
		}
	}
	if devSaved != h.SavedInstr {
		t.Fatalf("device saved-instr sum %d != fleet %d", devSaved, h.SavedInstr)
	}

	// A table trained on another game misses every lookup: the run
	// breaches the hit-rate floor, which flips the verdict without
	// failing the run.
	res2, err := Run(Config{
		Game: testGame, Devices: 1, SessionsPerDevice: 1,
		SessionDuration: testDur, SeedBase: 5000,
		Table: memo.NewShared(foreignTable(t)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Lookup.Lookups == 0 || res2.Lookup.Hits != 0 {
		t.Fatalf("foreign table: %d hits of %d lookups, want 0 of some", res2.Lookup.Hits, res2.Lookup.Lookups)
	}
	if res2.Health.Healthy {
		t.Fatal("run that never hit judged healthy")
	}
	for _, v := range res2.Health.Verdicts {
		if v.OK != (v.Name != "hit_rate") {
			t.Errorf("verdict %s ok=%v on a run whose only breach is the hit rate", v.Name, v.OK)
		}
	}
}

// foreignTable builds a table from another game's sessions: its keys
// never match a Colorphun event.
func foreignTable(t *testing.T) *memo.FlatTable {
	t.Helper()
	_, srv, _, table := bootGame(t, "Greenwall")
	srv.Close()
	return table
}

// TestFleetSpanRecordingRace drives devices recording spans while
// exporters concurrently drain both the device-side ring and the cloud's
// /v1/tracez endpoint. Run under -race by ci.sh: its whole point is the
// detector watching reader/writer overlap on the span paths.
func TestFleetSpanRecordingRace(t *testing.T) {
	_, srv, client, table := bootCloud(t)

	spans := obs.NewSpanBuffer(256)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			spans.Spans() // drain device-side ring mid-run
			resp, err := http.Get(srv.URL + "/v1/tracez")
			if err == nil {
				resp.Body.Close()
			}
		}
	}()

	_, err := Run(Config{
		Game: testGame, Devices: 4, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 6000,
		Table: memo.NewShared(table), Client: client, BatchSize: 2,
		Spans: spans,
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if spans.Total() == 0 {
		t.Fatal("no spans recorded during the race run")
	}
}
