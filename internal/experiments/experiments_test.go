package experiments

import (
	"testing"

	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

// testConfig keeps experiment tests quick: short sessions, few profiles.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SessionSeconds = 20
	cfg.ProfileSessions = 3
	return cfg
}

func TestFig2Shape(t *testing.T) {
	r, err := Fig2EnergyBreakdown(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Games) != 7 {
		t.Fatalf("%d games", len(r.Games))
	}
	for i, g := range r.Games {
		sh := r.Shares[i]
		var sum float64
		for _, f := range sh {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s breakdown sums to %v", g, sum)
		}
		// Paper: sensors+memory < 10%, CPU and IPs split the rest.
		if sh[0]+sh[1] > 0.10 {
			t.Errorf("%s sensors+memory %v", g, sh[0]+sh[1])
		}
		if sh[2] < 0.25 || sh[2] > 0.65 {
			t.Errorf("%s CPU share %v outside the paper band", g, sh[2])
		}
	}
	if r.Table() == nil || len(r.Table().Series) != 4 {
		t.Fatal("table rendering broken")
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3BatteryDrain(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.IdleHours < 15 || r.IdleHours > 30 {
		t.Fatalf("idle hours %v", r.IdleHours)
	}
	// Every game drains faster than idle; the last (Race Kings) fastest.
	for i, h := range r.Hours {
		if h >= r.IdleHours {
			t.Errorf("%s outlasts the idle phone", r.Games[i])
		}
	}
	if r.Hours[len(r.Hours)-1] >= r.Hours[0] {
		t.Errorf("Race Kings (%v h) should drain faster than Colorphun (%v h)",
			r.Hours[len(r.Hours)-1], r.Hours[0])
	}
	// Paper: heaviest game ≈6x faster than idle; ours should be at least 3x.
	if r.IdleHours/r.Hours[len(r.Hours)-1] < 3 {
		t.Errorf("drain ratio %v too small", r.IdleHours/r.Hours[len(r.Hours)-1])
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4UselessEvents(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	maxIdx := 0
	for i := range r.Games {
		if r.UselessEvents[i] > r.UselessEvents[maxIdx] {
			maxIdx = i
		}
		if r.UselessEvents[i] < 0.10 || r.UselessEvents[i] > 0.55 {
			t.Errorf("%s useless %v outside band", r.Games[i], r.UselessEvents[i])
		}
		if r.WastedEnergy[i] <= 0 {
			t.Errorf("%s wasted energy zero", r.Games[i])
		}
		// §I: exact union-record repeats among user gestures are much
		// rarer than redundant outputs. (Our simulation quantizes input
		// more aggressively than real sensors, so the band is wider than
		// the paper's 2-5%.)
		if r.Repeated[i] > 0.50 {
			t.Errorf("%s repeated user events %v implausibly high", r.Games[i], r.Repeated[i])
		}
	}
	if r.Games[maxIdx] != "ABEvolution" {
		t.Errorf("highest useless game is %s, paper says AB Evolution", r.Games[maxIdx])
	}
}

func TestFig6Blowup(t *testing.T) {
	r, err := Fig6NaiveTableSize(testConfig(), "ABEvolution")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows == 0 || r.RecordWidth <= 0 {
		t.Fatal("empty naive table")
	}
	// The union record width includes the terrain mesh: tens of kB.
	if r.RecordWidth < 32*1024 {
		t.Fatalf("record width %v, want ≫ In.Event sizes", r.RecordWidth)
	}
	// Sizes grow monotonically along the curve.
	for i := 1; i < len(r.Curve); i++ {
		if r.Curve[i].Size < r.Curve[i-1].Size || r.Curve[i].Coverage < r.Curve[i-1].Coverage {
			t.Fatal("curve not monotone")
		}
	}
	// The blowup: the FULL table (rows x union width) runs into the
	// hundreds of MBs even at this tiny test scale, and attainable
	// coverage saturates far below 100% — exactly why §III gives up on
	// the naive design. (At default scale the table reaches GBs.)
	total := units.Size(int64(r.Rows)) * r.RecordWidth
	if total < 100*units.MB {
		t.Errorf("naive table only %v; the paper blowup is GBs", total)
	}
	if r.MaxCoverage > 0.6 {
		t.Errorf("naive coverage saturates at %v; should be far below 1", r.MaxCoverage)
	}
}

func TestFig7Categories(t *testing.T) {
	r, err := Fig7InputOutputCDF(testConfig(), "ABEvolution")
	if err != nil {
		t.Fatal(err)
	}
	// In.Event appears in every execution; In.Extern rarely.
	if r.Occurrence[trace.InEvent] < 0.3 {
		t.Errorf("In.Event occurrence %v", r.Occurrence[trace.InEvent])
	}
	if r.Occurrence[trace.InHistory] < 0.5 {
		t.Errorf("In.History occurrence %v", r.Occurrence[trace.InHistory])
	}
	if r.Occurrence[trace.InExtern] > 0.05 {
		t.Errorf("In.Extern occurrence %v, paper says <0.05%%", r.Occurrence[trace.InExtern])
	}
	// History sizes dwarf event sizes (the mesh).
	if r.Max[trace.InHistory] <= r.Max[trace.InEvent] {
		t.Errorf("History max %v <= Event max %v", r.Max[trace.InHistory], r.Max[trace.InEvent])
	}
}

func TestFig8SmallButAmbiguous(t *testing.T) {
	r, err := Fig8EventOnlyTable(testConfig(), "ABEvolution")
	if err != nil {
		t.Fatal(err)
	}
	if r.SizeRatio <= 0 || r.SizeRatio > 0.25 {
		t.Errorf("event-only table is %v of naive; paper ≈1.5%%", r.SizeRatio)
	}
	if r.Stats.Coverage <= 0 {
		t.Error("no coverage")
	}
	if r.Stats.Ambiguous <= 0 {
		t.Error("no ambiguity — the In.Event-only flaw did not reproduce")
	}
	tempFrac, persFrac := r.ErrorBreakdown()
	if tempFrac+persFrac < 0.99 {
		t.Errorf("error breakdown %v+%v", tempFrac, persFrac)
	}
	if persFrac == 0 {
		t.Error("no persistent-category errors; Fig 8b needs both kinds")
	}
}

func TestFig9SelectsTinySubset(t *testing.T) {
	r, err := Fig9PFITrimCurve(testConfig(), "ABEvolution")
	if err != nil {
		t.Fatal(err)
	}
	if r.SelectedFrac > 0.02 {
		t.Errorf("selected %v of input bytes; paper ≈0.2%%", r.SelectedFrac)
	}
	if r.Final.NonTempError > 0.02 {
		t.Errorf("persistent error %v", r.Final.NonTempError)
	}
	if len(r.Curve) == 0 {
		t.Fatal("no trim curve")
	}
	if len(r.CategoryBytes) == 0 {
		t.Fatal("no category split")
	}
}

func TestFig11HeadlineShape(t *testing.T) {
	cfg := testConfig()
	cfg.ProfileSessions = 4
	r, err := Fig11Schemes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		snip := row.Saving[schemes.SNIP]
		if snip <= 0.05 {
			t.Errorf("%s SNIP saving %v too small", row.Game, snip)
		}
		if row.Saving[schemes.NoOverheads] < snip-1e-9 {
			t.Errorf("%s: NoOverheads below SNIP", row.Game)
		}
		if row.Coverage[schemes.SNIP] <= 0 {
			t.Errorf("%s: zero SNIP coverage", row.Game)
		}
	}
	avg := r.AverageSaving()
	if avg < 0.12 || avg > 0.45 {
		t.Errorf("average SNIP saving %v; paper 32%%", avg)
	}
	// On average SNIP must dominate both prior-work baselines (per-game
	// dominance needs the full profile volume; see the benches).
	var cpuAvg, ipAvg float64
	for _, row := range r.Rows {
		cpuAvg += row.Saving[schemes.MaxCPU]
		ipAvg += row.Saving[schemes.MaxIP]
	}
	cpuAvg /= float64(len(r.Rows))
	ipAvg /= float64(len(r.Rows))
	if avg <= cpuAvg || avg <= ipAvg {
		t.Errorf("SNIP avg %v must beat MaxCPU avg %v and MaxIP avg %v", avg, cpuAvg, ipAvg)
	}
	if cov := r.AverageCoverage(); cov < 0.3 || cov > 0.75 {
		t.Errorf("average coverage %v; paper 52%%", cov)
	}
}

func TestFig12ErrorsDecay(t *testing.T) {
	cfg := testConfig()
	r, err := Fig12ContinuousLearning(cfg, "ABEvolution", 6, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Epochs) != 6 {
		t.Fatalf("%d epochs", len(r.Epochs))
	}
	first, last := r.Epochs[0], r.Epochs[len(r.Epochs)-1]
	if last.ErrorRate > first.ErrorRate+1e-9 && first.ErrorRate > 0 {
		t.Errorf("errors grew: %v -> %v", first.ErrorRate, last.ErrorRate)
	}
	if last.ProfileRecords <= first.ProfileRecords {
		t.Error("profile did not grow")
	}
	if last.Coverage <= 0 {
		t.Error("no coverage after learning")
	}
}

func TestTable1Scope(t *testing.T) {
	r, err := Table1OptimizationScope(testConfig(), "ABEvolution")
	if err != nil {
		t.Fatal(err)
	}
	if r.SNIPFrac <= r.MaxCPUFrac || r.SNIPFrac <= r.MaxIPFrac {
		t.Errorf("SNIP scope (%v) must exceed MaxCPU (%v) and MaxIP (%v)",
			r.SNIPFrac, r.MaxCPUFrac, r.MaxIPFrac)
	}
}

func TestBackendProfilingNumbers(t *testing.T) {
	r, err := BackendProfiling(testConfig(), "ABEvolution")
	if err != nil {
		t.Fatal(err)
	}
	if r.EventLogSize >= r.FullProfileSize {
		t.Errorf("events-only upload %v not smaller than full profile %v",
			r.EventLogSize, r.FullProfileSize)
	}
	if r.NaiveTableSize <= r.DeployedTableSize {
		t.Errorf("no table shrink: naive %v vs deployed %v",
			r.NaiveTableSize, r.DeployedTableSize)
	}
	if r.CoreSeconds <= 0 {
		t.Error("zero backend cost")
	}
}
