package games_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/trace"
	"snip/internal/units"
	"snip/internal/workload"
)

// sessionEvents synthesizes the deliverable event list of one session.
func sessionEvents(t testing.TB, game string, seed uint64, secs int) []*events.Event {
	t.Helper()
	gen, err := workload.ForGame(game)
	if err != nil {
		t.Fatal(err)
	}
	stream := gen.Generate(seed, units.Time(secs)*units.Second)
	synth := events.NewSynthesizer(events.DefaultSynthesizerConfig())
	evs := synth.SynthesizeAll(stream)
	g := games.MustNew(game)
	handled := make(map[events.Type]bool)
	for _, ty := range g.Types() {
		handled[ty] = true
	}
	var out []*events.Event
	for i := range evs {
		if handled[evs[i].Type] {
			out = append(out, &evs[i])
		}
	}
	if len(out) < 100 {
		t.Fatalf("%s: only %d deliverable events", game, len(out))
	}
	return out
}

func TestCatalog(t *testing.T) {
	names := games.Names()
	if len(names) != 7 {
		t.Fatalf("want 7 games, got %v", names)
	}
	if names[0] != "Colorphun" || names[6] != "RaceKings" {
		t.Fatalf("paper ordering broken: %v", names)
	}
	for _, n := range names {
		g, err := games.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name() != n {
			t.Fatalf("name mismatch: %s vs %s", g.Name(), n)
		}
		if len(g.Types()) == 0 {
			t.Fatalf("%s registers no event types", n)
		}
	}
	if _, err := games.New("Tetris"); err == nil {
		t.Fatal("unknown game should error")
	}
	if len(games.All()) != 7 {
		t.Fatal("All() wrong length")
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 7, 10)
		a, b := games.MustNew(name), games.MustNew(name)
		a.Reset(7)
		b.Reset(7)
		pa, pb := &trace.Dataset{}, &trace.Dataset{}
		for i, e := range evs {
			a.Process(e.Clone(), pa)
			b.Process(e.Clone(), pb)
			if pa.Len() != i+1 || pb.Len() != i+1 {
				t.Fatalf("%s: event %d logged %d/%d rows", name, i, pa.Len(), pb.Len())
			}
			if pa.OutputHash(i) != pb.OutputHash(i) {
				t.Fatalf("%s: outputs diverged at event %d", name, i)
			}
			if pa.InputHash(i) != pb.InputHash(i) {
				t.Fatalf("%s: inputs diverged at event %d", name, i)
			}
		}
		if a.StateHash() != b.StateHash() {
			t.Fatalf("%s: final state hashes differ", name)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	// Two users playing differently should not end in identical state.
	for _, name := range games.Names() {
		evs1 := sessionEvents(t, name, 3, 10)
		evs2 := sessionEvents(t, name, 4, 10)
		a, b := games.MustNew(name), games.MustNew(name)
		a.Reset(3)
		b.Reset(4)
		for _, e := range evs1 {
			a.Process(e, nil)
		}
		for _, e := range evs2 {
			b.Process(e, nil)
		}
		if a.StateHash() == b.StateHash() {
			t.Fatalf("%s: different sessions ended in identical state", name)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 9, 8)
		g := games.MustNew(name)
		g.Reset(9)
		for _, e := range evs[:len(evs)/2] {
			g.Process(e, nil)
		}
		c := g.Clone(nil)
		if c.StateHash() != g.StateHash() {
			t.Fatalf("%s: clone differs immediately", name)
		}
		// Advancing the clone must not disturb the original.
		before := g.StateHash()
		for _, e := range evs[len(evs)/2:] {
			c.Process(e, nil)
		}
		if g.StateHash() != before {
			t.Fatalf("%s: processing the clone mutated the original", name)
		}
	}
}

// TestApplyOutputsRoundtrip is THE invariant that makes short-circuiting
// sound: applying a record's Out.History outputs to the pre-state must
// land in exactly the state that executing the event would have.
func TestApplyOutputsRoundtrip(t *testing.T) {
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 11, 10)
		g := games.MustNew(name)
		g.Reset(11)
		for i, e := range evs {
			shadow := g.Clone(nil)
			exec := g.Process(e, nil)
			shadow.ApplyOutputs(exec.Record.Outputs)
			if shadow.StateHash() != g.StateHash() {
				t.Fatalf("%s: ApplyOutputs diverged from execution at event %d (%v)",
					name, i, e.Type)
			}
		}
	}
}

// TestStateChangedGroundTruth: a record marked unchanged must leave the
// state hash identical, and a changed hash must be marked.
func TestStateChangedGroundTruth(t *testing.T) {
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 13, 10)
		g := games.MustNew(name)
		g.Reset(13)
		for i, e := range evs {
			before := g.StateHash()
			exec := g.Process(e, nil)
			after := g.StateHash()
			if !exec.Record.StateChanged && before != after {
				t.Fatalf("%s: event %d (%v) changed state but was marked useless",
					name, i, e.Type)
			}
			if exec.Record.StateChanged && before == after {
				// Allowed only for Out.Extern sends (state left the
				// device, not the store).
				hasExtern := false
				for _, f := range exec.Record.Outputs {
					if f.Category == trace.OutExtern {
						hasExtern = true
					}
				}
				if !hasExtern {
					t.Fatalf("%s: event %d (%v) marked changed but state identical",
						name, i, e.Type)
				}
			}
		}
	}
}

// TestLocatorMatchesRecordedInputs: the SNIP runtime's pre-execution
// reads must see exactly the values the tracer recorded. Every state and
// event input locates and peeks its recorded value; extern data cannot
// be read ahead and peeks trace.Absent.
func TestLocatorMatchesRecordedInputs(t *testing.T) {
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 17, 8)
		g := games.MustNew(name)
		g.Reset(17)
		for i, e := range evs {
			// Peek every input BEFORE processing.
			shadow := g.Clone(nil)
			loc := shadow.Locator()
			prof := &trace.Dataset{}
			g.Process(e, prof)
			// A handler may read the same location repeatedly as it
			// mutates it (the traced RNG does); the FIRST occurrence is
			// the pre-execution value — the one Record.Input returns and
			// the one table keys are built from.
			seen := map[string]bool{}
			for _, f := range prof.Record(0).Inputs {
				if seen[f.Name] {
					continue
				}
				seen[f.Name] = true
				l, ok := loc.Locate(e.Type, f.Name)
				v := loc.Peek(l, e)
				if f.Category == trace.InExtern {
					if ok || v != trace.Absent {
						t.Fatalf("%s: event %d: extern %s located (%v), peeks %d", name, i, f.Name, ok, v)
					}
					continue
				}
				if !ok {
					t.Fatalf("%s: cannot peek %s", name, f.Name)
				}
				if v != f.Value {
					t.Fatalf("%s: event %d peek %s = %d, recorded %d",
						name, i, f.Name, v, f.Value)
				}
			}
		}
	}
}

func TestFieldCategoriesWellFormed(t *testing.T) {
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 19, 6)
		g := games.MustNew(name)
		g.Reset(19)
		for _, e := range evs {
			prof := &trace.Dataset{}
			exec := g.Process(e, prof)
			rec := prof.Record(0)
			for _, f := range rec.Inputs {
				if !f.Category.IsInput() {
					t.Fatalf("%s: input field %s has output category %v", name, f.Name, f.Category)
				}
				if f.Size <= 0 {
					t.Fatalf("%s: field %s has size %v", name, f.Name, f.Size)
				}
			}
			for _, f := range rec.Outputs {
				if f.Category.IsInput() {
					t.Fatalf("%s: output field %s has input category %v", name, f.Name, f.Category)
				}
			}
			if exec.Record.Instr <= 0 || rec.Instr != exec.Record.Instr {
				t.Fatalf("%s: instruction weight %d, logged %d", name, exec.Record.Instr, rec.Instr)
			}
		}
	}
}

func TestUselessFractionInPaperRange(t *testing.T) {
	// Fig. 4: 17–43% of events are useless, AB Evolution the highest.
	fracs := map[string]float64{}
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 1, 30)
		g := games.MustNew(name)
		g.Reset(1)
		useless := 0
		for _, e := range evs {
			if exec := g.Process(e, nil); !exec.Record.StateChanged {
				useless++
			}
		}
		fracs[name] = float64(useless) / float64(len(evs))
	}
	for name, f := range fracs {
		if f < 0.10 || f > 0.55 {
			t.Errorf("%s useless fraction %.1f%% outside the plausible band", name, 100*f)
		}
	}
	for name, f := range fracs {
		if name != "ABEvolution" && f > fracs["ABEvolution"]+0.02 {
			t.Errorf("%s useless %.1f%% exceeds ABEvolution's %.1f%% (paper: ABE highest)",
				name, 100*f, 100*fracs["ABEvolution"])
		}
	}
}

func TestWorkIsPositive(t *testing.T) {
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 23, 5)
		g := games.MustNew(name)
		g.Reset(23)
		for _, e := range evs {
			w := g.Process(e, nil).Work()
			if w.CPUInstr <= 0 {
				t.Fatalf("%s: %v event with no CPU work", name, e.Type)
			}
		}
	}
}

func TestCandyHintIsLegal(t *testing.T) {
	g := games.MustNew("CandyCrush")
	g.Reset(5)
	a, b, ok := games.CandyHint(g)
	if !ok {
		t.Skip("board locked (rare)")
	}
	// The hinted cells must be adjacent.
	dr := a/8 - b/8
	dc := a%8 - b%8
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	if dr+dc != 1 {
		t.Fatalf("hint cells %d,%d not adjacent", a, b)
	}
	x, y := games.CandyCellCenter(a)
	if x <= 0 || y <= 0 {
		t.Fatalf("cell center (%d,%d)", x, y)
	}
	if games.CandyHint(games.MustNew("Colorphun")); false {
		t.Fatal("unreachable")
	}
	if _, _, ok := games.CandyHint(games.MustNew("Colorphun")); ok {
		t.Fatal("hint on a non-candy game")
	}
}

// Property: for arbitrary short event prefixes, clone-then-process equals
// process — the shadow-execution machinery the evaluator relies on.
func TestShadowExecutionProperty(t *testing.T) {
	evsByGame := map[string][]*events.Event{}
	for _, name := range games.Names() {
		evsByGame[name] = sessionEvents(t, name, 29, 6)
	}
	f := func(gameIdx, cut uint8) bool {
		name := games.Names()[int(gameIdx)%7]
		evs := evsByGame[name]
		n := int(cut) % len(evs)
		g := games.MustNew(name)
		g.Reset(29)
		for _, e := range evs[:n] {
			g.Process(e, nil)
		}
		clone := g.Clone(nil)
		if n >= len(evs) {
			return true
		}
		r1 := g.Process(evs[n], nil).Record
		r2 := clone.Process(evs[n], nil).Record
		return reflect.DeepEqual(r1.Outputs, r2.Outputs) && g.StateHash() == clone.StateHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
