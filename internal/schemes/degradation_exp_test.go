package schemes

import (
	"fmt"
	"testing"

	"snip/internal/chaos"
	"snip/internal/memo"
)

// TestPoisonSweep prints the EXPERIMENTS.md device-level degradation row
// data. Run manually: go test -run TestPoisonSweep -v ./internal/schemes
func TestPoisonSweep(t *testing.T) {
	table := buildFlatTable(t, "Greenwall", 2)
	base, err := Run(Config{Game: "Greenwall", Seed: 0xA1, Duration: testDur, Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0, 0.10, 0.25, 0.50, 1.0} {
		var tab memo.Table = table
		if rate > 0 {
			inj := chaos.New(chaos.Profile{Name: "table", Seed: 7, TablePoisonRate: rate})
			tab, _ = inj.MaybePoisonTable(table)
		}
		r, err := Run(Config{Game: "Greenwall", Seed: 0xA1, Duration: testDur,
			Scheme: SNIP, Table: tab, ShadowSampleRate: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		saving := 1 - float64(r.Energy)/float64(base.Energy)
		fmt.Printf("poison=%.2f snipped=%d events=%d hitShare=%.3f energySaving=%.3f checks=%d misp=%d ratio=%.3f\n",
			rate, r.SnippedEvents, r.Events, float64(r.SnippedEvents)/float64(r.Events),
			saving, r.Guard.ShadowChecks, r.Guard.Mispredicts, r.Guard.MispredictRatio())
	}
}
