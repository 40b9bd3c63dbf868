package schemes

import (
	"testing"

	"snip/internal/memo"
	"snip/internal/pfi"
	"snip/internal/trace"
	"snip/internal/units"
)

const testDur = 20 * units.Second

func TestKindStrings(t *testing.T) {
	if len(Kinds()) != NumKinds {
		t.Fatal("Kinds() incomplete")
	}
	for _, k := range Kinds() {
		if k.String() == "" {
			t.Fatalf("kind %d unnamed", int(k))
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Game: "Colorphun", Scheme: Baseline}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Run(Config{Game: "Colorphun", Scheme: SNIP, Duration: testDur}); err == nil {
		t.Fatal("SNIP without table accepted")
	}
	if _, err := Run(Config{Game: "NoSuchGame", Scheme: Baseline, Duration: testDur}); err == nil {
		t.Fatal("unknown game accepted")
	}
}

func TestBaselineSession(t *testing.T) {
	r, err := Run(Config{Game: "Colorphun", Seed: 1, Duration: testDur,
		Scheme: Baseline, CollectTrace: true, CollectEventLog: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Events < 500 {
		t.Fatalf("only %d events in 20s", r.Events)
	}
	if r.Energy <= 0 {
		t.Fatal("no energy consumed")
	}
	if r.Elapsed < 19*units.Second || r.Elapsed > 22*units.Second {
		t.Fatalf("elapsed %v for a 20s session", r.Elapsed)
	}
	if r.Dataset.Len() != r.Events {
		t.Fatalf("dataset %d records for %d events", r.Dataset.Len(), r.Events)
	}
	if len(r.EventLog.Events) != r.Events {
		t.Fatalf("event log %d entries", len(r.EventLog.Events))
	}
	if r.UselessEvents == 0 || r.UselessEnergy <= 0 {
		t.Fatal("no useless events detected in Colorphun")
	}
	if r.SnippedEvents != 0 || r.SnippedWeight != 0 {
		t.Fatal("baseline short-circuited something")
	}
	// Breakdown sums to 1 and sensors+memory stay below 10% (Fig 2).
	var sum float64
	for _, f := range r.Breakdown {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("breakdown sums to %v", sum)
	}
	if r.Breakdown[0]+r.Breakdown[1] > 0.10 {
		t.Fatalf("sensors+memory share %v, paper says <10%%", r.Breakdown[0]+r.Breakdown[1])
	}
	if h := r.BatteryHours(); h < 2 || h > 15 {
		t.Fatalf("battery hours %v implausible", h)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		r, err := Run(Config{Game: "Greenwall", Seed: 5, Duration: testDur, Scheme: Baseline})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Energy != b.Energy || a.Events != b.Events || a.Elapsed != b.Elapsed {
		t.Fatalf("runs differ: %v/%v, %d/%d", a.Energy, b.Energy, a.Events, b.Events)
	}
}

func TestMaxSchemesSaveEnergy(t *testing.T) {
	for _, game := range []string{"RaceKings", "CandyCrush"} {
		base, err := Run(Config{Game: game, Seed: 1, Duration: testDur, Scheme: Baseline})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []Kind{MaxCPU, MaxIP} {
			r, err := Run(Config{Game: game, Seed: 1, Duration: testDur, Scheme: k})
			if err != nil {
				t.Fatal(err)
			}
			if r.Energy > base.Energy {
				t.Fatalf("%s %v used MORE energy than baseline", game, k)
			}
		}
	}
}

func buildTable(t testing.TB, game string, sessions int) *memo.SnipTable {
	t.Helper()
	prof := &trace.Dataset{Game: game}
	for i := 0; i < sessions; i++ {
		r, err := Profile(game, uint64(0xA1+i), testDur)
		if err != nil {
			t.Fatal(err)
		}
		prof.Merge(r.Dataset)
	}
	res, err := pfi.Run(prof, pfi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return memo.BuildSnip(prof, res.Selection)
}

// buildFlatTable is buildTable's table in the flat form the fleet
// serves and the chaos injector poisons.
func buildFlatTable(t testing.TB, game string, sessions int) *memo.FlatTable {
	t.Helper()
	ft, err := memo.Flatten(buildTable(t, game, sessions))
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestSNIPEndToEnd(t *testing.T) {
	table := buildTable(t, "CandyCrush", 4)
	base, err := Run(Config{Game: "CandyCrush", Seed: 1, Duration: testDur, Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{Game: "CandyCrush", Seed: 1, Duration: testDur,
		Scheme: SNIP, Table: table, EvalCorrectness: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.SnippedEvents == 0 {
		t.Fatal("SNIP snipped nothing")
	}
	cov := r.CoverageFraction()
	if cov < 0.2 || cov > 0.95 {
		t.Fatalf("coverage %v outside plausible band", cov)
	}
	if r.Energy >= base.Energy {
		t.Fatal("SNIP saved no energy")
	}
	saving := 1 - float64(r.Energy)/float64(base.Energy)
	if saving < 0.10 {
		t.Fatalf("saving only %.1f%%", 100*saving)
	}
	if r.Errors.ShadowedEvents != int64(r.SnippedEvents) {
		t.Fatalf("shadowed %d of %d snips", r.Errors.ShadowedEvents, r.SnippedEvents)
	}
	if r.Errors.PredictedFields == 0 {
		t.Fatal("no fields served?")
	}
	if rate := r.Errors.FieldErrorRate(); rate > 0.05 {
		t.Fatalf("error rate %.2f%% too high for a well-trained table", 100*rate)
	}
	if r.LookupEnergy <= 0 || r.ComparedBytes <= 0 {
		t.Fatal("lookup overhead not charged")
	}
	// NoOverheads is at least as good as SNIP.
	no, err := Run(Config{Game: "CandyCrush", Seed: 1, Duration: testDur,
		Scheme: NoOverheads, Table: table})
	if err != nil {
		t.Fatal(err)
	}
	if no.Energy > r.Energy {
		t.Fatal("NoOverheads used more energy than SNIP")
	}
	if no.LookupEnergy != 0 {
		t.Fatal("NoOverheads charged lookups")
	}
}

func TestSNIPOnTrainingSessionIsNearPerfect(t *testing.T) {
	// Deployed on one of its own training sessions, the table should
	// short-circuit heavily and with zero error (exact recurrences).
	table := buildTable(t, "Greenwall", 2)
	r, err := Run(Config{Game: "Greenwall", Seed: 0xA1, Duration: testDur,
		Scheme: SNIP, Table: table, EvalCorrectness: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.CoverageFraction() < 0.5 {
		t.Fatalf("self-coverage only %v", r.CoverageFraction())
	}
	// PFI tolerates ~1% persistent + ~10% temp error by design, and a
	// wrong apply can cascade briefly, so "near-perfect" means single
	// digits here.
	if rate := r.Errors.FieldErrorRate(); rate > 0.10 {
		t.Fatalf("self-replay error rate %v", rate)
	}
}

func TestProfileHelper(t *testing.T) {
	r, err := Profile("MemoryGame", 3, testDur)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dataset == nil || r.EventLog == nil {
		t.Fatal("profile missing trace or log")
	}
}

func TestIdlePhoneHours(t *testing.T) {
	h := IdlePhoneHours(nil)
	if h < 15 || h > 30 {
		t.Fatalf("idle phone %v h, paper says ≈20 h", h)
	}
}

func TestBatteryDrainOrdering(t *testing.T) {
	// Fig 3's headline: the heaviest game drains much faster than the
	// lightest, and every game drains faster than the idle phone.
	light, err := Run(Config{Game: "Colorphun", Seed: 1, Duration: testDur, Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(Config{Game: "RaceKings", Seed: 1, Duration: testDur, Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	idle := IdlePhoneHours(nil)
	if !(heavy.BatteryHours() < light.BatteryHours() && light.BatteryHours() < idle) {
		t.Fatalf("ordering broken: race %v < colorphun %v < idle %v",
			heavy.BatteryHours(), light.BatteryHours(), idle)
	}
}

// TestCountErrorsLastServedWins: a served name that repeats is judged
// by its last occurrence, the answer a name-keyed map of the served
// outputs gave; a truth field that was not served is an error.
func TestCountErrorsLastServedWins(t *testing.T) {
	served := []trace.Field{
		{Name: "state.a", Value: 1}, {Name: "state.b", Value: 5}, {Name: "state.a", Value: 2},
	}
	truth := []trace.Field{
		{Name: "state.a", Category: trace.OutHistory, Value: 2},
		{Name: "state.b", Category: trace.OutHistory, Value: 5},
		{Name: "state.c", Category: trace.OutTemp, Value: 0},
	}
	var st ErrorStats
	countErrors(&st, served, truth)
	if st.PredictedFields != 3 || st.ErrHistory != 0 || st.ErrTemp != 1 || st.ByField["state.c"] != 1 || len(st.ByField) != 1 {
		t.Fatalf("got %+v", st)
	}
	truth[0].Value = 1 // the first state.a, which a later one overrides
	st = ErrorStats{}
	countErrors(&st, served, truth)
	if st.ErrHistory != 1 || st.ByField["state.a"] != 1 {
		t.Fatalf("first occurrence judged: %+v", st)
	}
}
