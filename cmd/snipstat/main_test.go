package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"snip/internal/cloud"
	"snip/internal/obs"
	"snip/internal/pfi"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

// pane returns the dashboard section under heading: from the heading
// line up to the blank line that opens the next pane.
func pane(t *testing.T, frame, heading string) string {
	t.Helper()
	i := strings.Index(frame, "\n"+heading)
	if i < 0 {
		t.Fatalf("no %q pane in frame:\n%s", heading, frame)
	}
	p := frame[i+1:]
	if j := strings.Index(p, "\n\n"); j >= 0 {
		p = p[:j]
	}
	return p
}

// TestRenderTelemetryPanes renders one frame from a live service that
// ingested one upload batch and one energy-bearing telemetry batch: no
// pane may fail, and each view pane must show what was ingested. The
// panes decode the cloud's own reply types, so a field the service
// stops serving shows up here as an empty pane.
func TestRenderTelemetryPanes(t *testing.T) {
	const game = "Colorphun"
	svc := cloud.NewServiceWithOptions(pfi.DefaultConfig(), cloud.ServiceOptions{
		Shards: 2,
		Quota:  cloud.QuotaConfig{RatePerSec: 100, Burst: 100},
	})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	res, err := schemes.Run(schemes.Config{
		Game: game, Seed: 3, Duration: 5 * units.Second,
		Scheme: schemes.Baseline, CollectEventLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := cloud.NewClient(srv.URL)
	sc := obs.Root(obs.NewTraceID(1, 2))
	if _, err := client.UploadBatchTraced(game, []trace.SessionEvents{{Seed: 3, Log: res.EventLog}}, sc); err != nil {
		t.Fatal(err)
	}
	rec := trace.TelemetryRecord{
		Device: 0, SimTimeUS: 5_000_000, Generation: 4,
		Sessions: 1, Events: 200, Lookups: 200, Hits: 120,
		EnergyUJ: 900, SensorsUJ: 100, MemoryUJ: 200, CPUUJ: 500, IPsUJ: 100,
		SavedUJ: 300, ElapsedUS: 5_000_000, DeviceTotalUJ: 900,
	}
	if _, err := client.UploadTelemetry(game, []trace.TelemetryRecord{rec}, obs.SpanContext{}, nil); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	failed, err := render(&out, srv.Client(), srv.URL, 6, false, 0)
	if failed != 0 {
		t.Fatalf("%d panes failed, first: %v\n%s", failed, err, out.String())
	}
	frame := out.String()
	if strings.Contains(frame, "unavailable") {
		t.Fatalf("a pane degraded:\n%s", frame)
	}
	for _, c := range []struct{ heading, want string }{
		{"Shards (2,", game},
		{"Overload (admission control)", game},
		{"Fleet telemetry", game},
		{"Fleet telemetry", "gen 4"},
		{"Fleet energy", game},
		{"Fleet energy", "gen 4"},
		{"Recent traces", sc.Trace.String()},
		{"Recent traces", "cloud.upload-batch"},
	} {
		if p := pane(t, frame, c.heading); !strings.Contains(p, c.want) {
			t.Errorf("pane %q does not show %q:\n%s", c.heading, c.want, p)
		}
	}
}
