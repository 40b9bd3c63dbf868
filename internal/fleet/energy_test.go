package fleet

import (
	"math"
	"strings"
	"testing"

	"snip/internal/chaos"
	"snip/internal/cloud"
	"snip/internal/memo"
)

// TestFleetEnergyDoesNotPerturbRun pins the ledger's determinism
// contract: enabling energy attribution changes nothing about what the
// fleet computes — sessions, events, lookups, hits and SavedInstr are
// byte-identical with the ledger on and off, which is what keeps the
// paper figures byte-identical too.
func TestFleetEnergyDoesNotPerturbRun(t *testing.T) {
	run := func(en *EnergyConfig) *Result {
		_, _, client, table := bootCloud(t)
		res, err := Run(Config{
			Game: testGame, Devices: 4, SessionsPerDevice: 2,
			SessionDuration: testDur, SeedBase: 6000,
			Table: memo.NewShared(table), Client: client, BatchSize: 2,
			Energy: en,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(nil)
	on := run(&EnergyConfig{})
	if off.Sessions != on.Sessions || off.Events != on.Events ||
		off.Lookup != on.Lookup {
		t.Fatalf("energy ledger perturbed the run:\n off: %+v\n on: %+v", off.Lookup, on.Lookup)
	}
	for d := range off.PerDevice {
		a, b := off.PerDevice[d], on.PerDevice[d]
		if a.SavedInstr != b.SavedInstr || a.Events != b.Events || a.Lookup != b.Lookup {
			t.Fatalf("device %d diverged:\n off: %+v\n on: %+v", d, a, b)
		}
		if a.Energy != nil {
			t.Fatal("energy breakdown on a disabled run")
		}
		if b.Energy == nil || b.Energy.TotalUJ <= 0 {
			t.Fatalf("device %d has no energy on an enabled run: %+v", d, b.Energy)
		}
	}
	if off.Energy != nil {
		t.Fatal("energy report on a disabled run")
	}
	if on.Energy == nil || on.Energy.TotalUJ <= 0 {
		t.Fatalf("energy enabled but nothing charged: %+v", on.Energy)
	}
}

// TestFleetEnergyConservation pins the ledger's accounting identities:
// per-group sums equal the total at device and fleet level, cause
// buckets are populated on a hitting run, and the derived per-event and
// battery-hours figures are consistent.
func TestFleetEnergyConservation(t *testing.T) {
	_, _, client, table := bootCloud(t)
	res, err := Run(Config{
		Game: testGame, Devices: 3, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 9100,
		Table: memo.NewShared(table), Client: client, BatchSize: 2,
		Energy: &EnergyConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSum := func(name string, b *EnergyBreakdown) {
		t.Helper()
		sum := b.SensorsUJ + b.MemoryUJ + b.CPUUJ + b.IPsUJ
		if math.Abs(sum-b.TotalUJ) > 1e-6*math.Max(1, b.TotalUJ) {
			t.Fatalf("%s: group sum %.3f != total %.3f", name, sum, b.TotalUJ)
		}
	}
	var devTotal float64
	for _, dr := range res.PerDevice {
		if dr.Energy == nil {
			t.Fatalf("device %d missing energy", dr.Device)
		}
		checkSum("device", dr.Energy)
		devTotal += dr.Energy.TotalUJ
	}
	e := res.Energy
	checkSum("fleet", &e.EnergyBreakdown)
	if math.Abs(devTotal-e.TotalUJ) > 1e-6*devTotal {
		t.Fatalf("device sum %.3f != fleet total %.3f", devTotal, e.TotalUJ)
	}
	// Every group the event path touches must be non-zero: Binder copies
	// (CPU), table compares + copies (Memory), hub processing (IPs),
	// sampling (Sensors).
	if e.SensorsUJ <= 0 || e.MemoryUJ <= 0 || e.CPUUJ <= 0 || e.IPsUJ <= 0 {
		t.Fatalf("empty Fig-2 group: %+v", e.EnergyBreakdown)
	}
	if e.LookupOverheadUJ <= 0 {
		t.Fatal("lookups happened but the lookup bucket is empty")
	}
	if res.Lookup.Hits > 0 && e.SavedUJ <= 0 {
		t.Fatal("hits landed but no short-circuit credit was booked")
	}
	if e.ShadowVerifyUJ != 0 {
		t.Fatalf("shadow bucket %.3f µJ with the guard disabled", e.ShadowVerifyUJ)
	}
	if want := float64(e.TotalUJ) / float64(res.Events); math.Abs(e.EnergyPerEventUJ-want) > 1e-9 {
		t.Fatalf("per-event %.6f, want %.6f", e.EnergyPerEventUJ, want)
	}
	if e.ElapsedUS != int64(res.Sessions)*int64(testDur) {
		t.Fatalf("elapsed %d, want sessions×duration %d", e.ElapsedUS, int64(res.Sessions)*int64(testDur))
	}
	if e.BatteryHours <= 0 {
		t.Fatal("battery-hours extrapolation missing")
	}
	// The health snapshot now carries the real µJ next to the SavedInstr
	// counter, and the saved-energy verdict judges them.
	h := res.Health
	if h.EnergyUJ != e.TotalUJ || h.SavedEnergyUJ != e.SavedUJ {
		t.Fatalf("health energy (%.1f, %.1f) != report (%.1f, %.1f)",
			h.EnergyUJ, h.SavedEnergyUJ, e.TotalUJ, e.SavedUJ)
	}
	found := false
	for _, v := range h.Verdicts {
		if v.Name == "saved_energy_fraction" {
			found = true
			if !v.OK {
				t.Fatalf("saved-energy verdict failed on a healthy run: %+v", v)
			}
		}
	}
	if !found {
		t.Fatal("no saved_energy_fraction verdict")
	}
}

// TestFleetEnergyRegressionCycle runs the drift-cycle chaos scenario
// with the ledger on and reads it back through the energy lens: the
// poisoned generation's keys still match, so it spends like a healthy
// one — but its mispredicted hits forfeit the short-circuit credit (and
// pay the shadow re-execution), so its windowed *net* energy per event
// rises above the clean generation's. After the guard rolls back, the
// restored generation is live again and the regression signal reads
// "improved".
func TestFleetEnergyRegressionCycle(t *testing.T) {
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
	res, err := Run(Config{
		Game: testGame, Devices: 1, SessionsPerDevice: 4,
		SessionDuration: testDur, SeedBase: 9000,
		Table: shared, Client: client, BatchSize: 1,
		Energy: &EnergyConfig{},
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
	if res.Energy == nil || res.Energy.ShadowVerifyUJ <= 0 {
		t.Fatalf("shadow verification spent no energy: %+v", res.Energy)
	}

	ez := svc.Energyz()
	if len(ez.Games) != 1 {
		t.Fatalf("energyz games: %+v", ez.Games)
	}
	eg := ez.Games[0]
	if eg.MonotoneViolations != 0 {
		t.Fatalf("monotone violations %d, want 0", eg.MonotoneViolations)
	}
	var g1, g2 *cloud.EnergyzGeneration
	for i := range eg.Generations {
		switch eg.Generations[i].Generation {
		case 1:
			g1 = &eg.Generations[i]
		case 2:
			g2 = &eg.Generations[i]
		}
	}
	if g1 == nil || g2 == nil {
		t.Fatalf("missing generation rollups: %+v", eg.Generations)
	}
	// The discriminator: the poisoned generation earns far less credit
	// per event, so its net rate is decisively higher.
	saved1 := g1.SavedUJ / float64(g1.Events)
	saved2 := g2.SavedUJ / float64(g2.Events)
	if saved2 >= saved1 {
		t.Fatalf("poisoned credit/event %v should trail clean %v", saved2, saved1)
	}
	if g2.NetPerEventUJ <= g1.NetPerEventUJ {
		t.Fatalf("net energy per event did not rise under poison: gen1=%v gen2=%v",
			g1.NetPerEventUJ, g2.NetPerEventUJ)
	}
	// Post-rollback records moved live back to generation 1, so the
	// signal reads the recovery: live is cheaper than the poisoned
	// generation it displaced.
	if eg.LiveGeneration != 1 || eg.PrevGeneration != 2 {
		t.Fatalf("live/prev after rollback: live=%d prev=%d, want 1/2",
			eg.LiveGeneration, eg.PrevGeneration)
	}
	if eg.Regression >= 0 || eg.RegressionVerdict != "improved" {
		t.Fatalf("regression %v verdict %q, want negative and improved", eg.Regression, eg.RegressionVerdict)
	}
	if v := svc.Metrics().Snapshot().Gauges[`snip_cloud_fleet_energy_regression_permille{game="`+testGame+`"}`]; v >= 0 {
		t.Fatalf("regression gauge %d, want negative after recovery", v)
	}
}

// TestSavedEnergyVerdict pins the SLO floor's semantics directly against
// buildHealth: vacuous without a ledger or without a single credit,
// failing with a detail when the credits are too small to matter.
func TestSavedEnergyVerdict(t *testing.T) {
	verdict := func(res *Result) *SLOVerdict {
		h := buildHealth(res)
		for i := range h.Verdicts {
			if h.Verdicts[i].Name == "saved_energy_fraction" {
				return &h.Verdicts[i]
			}
		}
		return nil
	}

	// Ledger off: vacuous pass.
	if v := verdict(&Result{}); v == nil || !v.OK {
		t.Fatalf("disabled ledger verdict: %+v", v)
	}
	// Ledger on, no credits (e.g. empty table): vacuous pass — hit_rate
	// owns that failure mode.
	noCredit := &Result{
		Energy:    &EnergyReport{EnergyBreakdown: EnergyBreakdown{TotalUJ: 500}},
		PerDevice: []DeviceResult{{Energy: &EnergyBreakdown{TotalUJ: 500}}},
	}
	if v := verdict(noCredit); v == nil || !v.OK {
		t.Fatalf("no-credit verdict: %+v", v)
	}
	// Credits too small: fail with the fraction in the detail.
	thin := &Result{
		Energy: &EnergyReport{EnergyBreakdown: EnergyBreakdown{TotalUJ: 990, SavedUJ: 10}},
		PerDevice: []DeviceResult{{
			Energy: &EnergyBreakdown{TotalUJ: 990, SavedUJ: 10},
		}},
	}
	v := verdict(thin)
	if v == nil || v.OK {
		t.Fatalf("thin credits passed: %+v", v)
	}
	if v.Value != 0.01 || v.Threshold != sloMinSavedEnergyFraction || !strings.Contains(v.Detail, "0.010") {
		t.Fatalf("verdict value/detail wrong: %+v", v)
	}
	// Healthy fraction passes.
	fat := &Result{
		Energy: &EnergyReport{EnergyBreakdown: EnergyBreakdown{TotalUJ: 600, SavedUJ: 400}},
		PerDevice: []DeviceResult{{
			Energy: &EnergyBreakdown{TotalUJ: 600, SavedUJ: 400},
		}},
	}
	if v := verdict(fat); v == nil || !v.OK || v.Value != 0.4 {
		t.Fatalf("healthy fraction verdict: %+v", v)
	}
}
