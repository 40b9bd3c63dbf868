package schemes

import (
	"testing"

	"snip/internal/chaos"
)

// TestShadowGuardSamplesHits: at rate 1.0 every memo hit is shadow-
// verified; on one of the table's own training sessions mispredicts stay
// rare (PFI tolerates ~1% persistent error and a wrong apply can cascade
// briefly) — and enabling the guard must not change the energy figures
// at all.
func TestShadowGuardSamplesHits(t *testing.T) {
	table := buildTable(t, "Greenwall", 2)
	bare, err := Run(Config{Game: "Greenwall", Seed: 0xA1, Duration: testDur,
		Scheme: SNIP, Table: table})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Guard.ShadowChecks != 0 {
		t.Fatal("guard sampled with the rate at zero")
	}

	guarded, err := Run(Config{Game: "Greenwall", Seed: 0xA1, Duration: testDur,
		Scheme: SNIP, Table: table, ShadowSampleRate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if guarded.Guard.ShadowChecks != int64(guarded.SnippedEvents) {
		t.Fatalf("rate 1.0 checked %d of %d hits", guarded.Guard.ShadowChecks, guarded.SnippedEvents)
	}
	if ratio := guarded.Guard.MispredictRatio(); ratio > 0.20 {
		t.Fatalf("mispredict ratio %.2f on a training session; want rare", ratio)
	}
	if guarded.Energy != bare.Energy || guarded.SnippedEvents != bare.SnippedEvents {
		t.Fatalf("guard perturbed the run: energy %v vs %v, snips %d vs %d",
			guarded.Energy, bare.Energy, guarded.SnippedEvents, bare.SnippedEvents)
	}

	// Sampling below 1.0 checks a strict subset.
	sampled, err := Run(Config{Game: "Greenwall", Seed: 0xA1, Duration: testDur,
		Scheme: SNIP, Table: table, ShadowSampleRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Guard.ShadowChecks == 0 || sampled.Guard.ShadowChecks >= guarded.Guard.ShadowChecks {
		t.Fatalf("rate 0.3 checked %d hits (rate 1.0 checked %d)",
			sampled.Guard.ShadowChecks, guarded.Guard.ShadowChecks)
	}
}

// TestShadowGuardCatchesPoisonedTable: with the deployed table's outputs
// corrupted, sampled shadow verification must report mispredicts — the
// signal the fleet's circuit breaker trips on. It also pins the poisoned
// images' entry counts and arena CRCs, recorded when poisoning still
// rebuilt the table through its map form and re-flattened it.
func TestShadowGuardCatchesPoisonedTable(t *testing.T) {
	table := buildFlatTable(t, "Greenwall", 2)
	inj := chaos.New(chaos.Profile{Name: "table", Seed: 5, TablePoisonRate: 1.0})
	poisoned, n := inj.MaybePoisonTable(table)
	if n == 0 {
		t.Fatal("nothing poisoned")
	}
	if table.ArenaCRC() != 0x22a41048 {
		t.Fatalf("Greenwall table arena CRC %#08x, want 0x22a41048", table.ArenaCRC())
	}
	if n != 1687 || poisoned.ArenaCRC() != 0xac908e3f {
		t.Fatalf("rate 1.0 poisoned %d entries, arena CRC %#08x; want 1687, 0xac908e3f", n, poisoned.ArenaCRC())
	}
	some, n := chaos.New(chaos.Profile{Name: "table", Seed: 7, TablePoisonRate: 0.25}).MaybePoisonTable(table)
	if n != 398 || some.ArenaCRC() != 0x5dcb71f6 {
		t.Fatalf("rate 0.25 poisoned %d entries, arena CRC %#08x; want 398, 0x5dcb71f6", n, some.ArenaCRC())
	}
	r, err := Run(Config{Game: "Greenwall", Seed: 0xA1, Duration: testDur,
		Scheme: SNIP, Table: poisoned, ShadowSampleRate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Guard.ShadowChecks == 0 {
		t.Fatal("no hits sampled")
	}
	if r.Guard.Mispredicts == 0 {
		t.Fatal("poisoned outputs went undetected")
	}
	if ratio := r.Guard.MispredictRatio(); ratio < 0.5 {
		t.Fatalf("mispredict ratio %.2f with every entry poisoned; expected most checks to fail", ratio)
	}
}

// TestGuardStatsMerge covers the aggregation helpers.
func TestGuardStatsMerge(t *testing.T) {
	var g GuardStats
	g.Merge(GuardStats{ShadowChecks: 10, Mispredicts: 1})
	g.Merge(GuardStats{ShadowChecks: 30, Mispredicts: 3})
	if g.ShadowChecks != 40 || g.Mispredicts != 4 {
		t.Fatalf("merged %+v", g)
	}
	if r := g.MispredictRatio(); r != 0.1 {
		t.Fatalf("ratio %v, want 0.1", r)
	}
	if (GuardStats{}).MispredictRatio() != 0 {
		t.Fatal("empty ratio not 0")
	}
}
