package snip_test

import (
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"snip"
)

// TestRunFleetAlwaysRunsLedger: a fleet run with nothing but a game, a
// table and a cloud URL books every event into the energy ledger, whose
// four Fig. 2 groups sum to its total, and is judged on the same six
// SLO verdicts every run gets.
func TestRunFleetAlwaysRunsLedger(t *testing.T) {
	const dur = 5 * time.Second
	profile, err := snip.Profile("Colorphun", snip.ProfileOptions{Sessions: 2, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := snip.BuildTable(profile, snip.DefaultPFIOptions())
	if err != nil {
		t.Fatal(err)
	}
	svc := snip.NewCloudService(snip.DefaultPFIOptions(), snip.CloudServiceOptions{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	rep, err := snip.RunFleet(snip.FleetOptions{
		Game: "Colorphun", Duration: dur,
		Table: snip.NewSharedTable(table), CloudURL: srv.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := rep.Energy
	if e == nil || e.TotalUJ <= 0 {
		t.Fatalf("no energy section on a default run: %+v", e)
	}
	if sum := e.SensorsUJ + e.MemoryUJ + e.CPUUJ + e.IPsUJ; math.Abs(sum-e.TotalUJ) > 1e-6*e.TotalUJ {
		t.Fatalf("energy groups sum to %.3fµJ, total says %.3fµJ", sum, e.TotalUJ)
	}
	if rep.Hits > 0 && e.SavedUJ <= 0 {
		t.Fatalf("%d hits but no short-circuit credit", rep.Hits)
	}
	var names []string
	for _, v := range rep.Health.Verdicts {
		names = append(names, v.Name)
	}
	want := []string{"hit_rate", "p99_lookup_ns", "retries_per_batch",
		"mispredict_ratio", "saved_energy_fraction", "failed_devices"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("verdicts %v, want %v", names, want)
	}
}
