package schemes

import (
	"reflect"
	"slices"
	"testing"

	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/trace"
	"snip/internal/units"
	"snip/internal/workload"
)

// probeSink checks every probe the device reports against an untimed
// oracle: the table's by-name Lookup of the pending event, made in
// Deliver on the state the runtime then probes. It records the
// session ordinals of the probes reported as timed.
type probeSink struct {
	t     *testing.T
	tab   memo.Table
	game  games.Game
	e     *events.Event
	want  [3]int64 // the oracle's probes, compared bytes and hit
	n     int64    // probes reported this session
	timed []int64
}

func (s *probeSink) Deliver(e *events.Event) memo.Table {
	loc := s.game.Locator()
	_, probes, cmp, hit := s.tab.Lookup(e.Type.String(), func(name string) (uint64, bool) {
		l, ok := loc.Locate(e.Type, name)
		return loc.Peek(l, e), ok
	})
	s.e, s.want = e, [3]int64{probes, int64(cmp), b2i(hit)}
	return s.tab
}

func (s *probeSink) Probed(probes int64, cmp units.Size, hit bool, wallNS int64) {
	if got := [3]int64{probes, int64(cmp), b2i(hit)}; got != s.want {
		s.t.Errorf("event %d: probe (probes, bytes, hit) %v, untimed oracle %v", s.e.Seq, got, s.want)
	}
	if wallNS >= 0 {
		s.timed = append(s.timed, s.n)
	}
	s.n++
}

func (s *probeSink) Hit(_ int64, served []trace.Field, _ *games.Execution) []trace.Field {
	return served
}

func (s *probeSink) Executed(*games.Execution) {}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestProbeTimingSampled: on every game, an untraced session reports
// each probe once, with the costs and hit an untimed oracle computes,
// and times exactly the probes whose ordinal within the session is a
// multiple of 16; a traced Run times every probe, so each of its
// memo.lookup spans carries a measured wall time.
func TestProbeTimingSampled(t *testing.T) {
	for _, name := range games.Names() {
		gen, err := workload.ForGame(name)
		if err != nil {
			t.Fatal(err)
		}
		tab := buildFlatTable(t, name, 2)
		game := games.MustNew(name)
		d := NewDevice(game)
		sink := &probeSink{t: t, tab: tab, game: game}
		for _, seed := range []uint64{0xC5, 0xC6} {
			sink.n, sink.timed = 0, nil
			p := d.Play(Session{Gen: gen, Seed: seed, Duration: testDur, ShadowRate: 0.25}, sink)
			if sink.n != p.Lookup.Lookups || sink.n < 100 {
				t.Fatalf("%s seed %d: %d probes reported, %d lookups", name, seed, sink.n, p.Lookup.Lookups)
			}
			var want []int64
			for k := int64(0); k < sink.n; k += 16 {
				want = append(want, k)
			}
			if !slices.Equal(sink.timed, want) {
				t.Errorf("%s seed %d: timed probe ordinals %v, want %v", name, seed, sink.timed, want)
			}
		}

		spans := obs.NewSpanBuffer(1 << 16)
		res, err := Run(Config{Game: name, Seed: 0xC5, Duration: testDur, Scheme: SNIP, Table: tab, Spans: spans})
		if err != nil {
			t.Fatal(err)
		}
		var lookups int64
		for _, sp := range spans.Spans() {
			if sp.Name != "memo.lookup" {
				continue
			}
			lookups++
			if sp.WallNS < 0 {
				t.Fatalf("%s: traced memo.lookup span %d has no measured wall time (%d)", name, lookups, sp.WallNS)
			}
		}
		if lookups != res.Lookup.Lookups {
			t.Errorf("%s: traced run recorded %d memo.lookup spans for %d lookups", name, lookups, res.Lookup.Lookups)
		}
	}
}

// shadowSink verifies every hit and checks each check the device made on
// its kept clone against a new Clone of the live game run on the same
// event.
type shadowSink struct {
	t      *testing.T
	tab    memo.Table
	d      *Device
	e      *events.Event
	checks int
}

func (s *shadowSink) Deliver(e *events.Event) memo.Table {
	s.e = e
	return s.tab
}

func (s *shadowSink) Probed(int64, units.Size, bool, int64) {}

func (s *shadowSink) Hit(_ int64, served []trace.Field, truth *games.Execution) []trace.Field {
	fresh := s.d.game.Clone(nil)
	want := fresh.Process(s.e, nil)
	switch kept := s.d.clone; {
	case truth == nil:
		s.t.Fatalf("event %d: a hit under VerifyAll was not verified", s.e.Seq)
	case !reflect.DeepEqual(*truth.Record, *want.Record) || !reflect.DeepEqual(truth.CPUFuncs, want.CPUFuncs) ||
		!reflect.DeepEqual(truth.IPCalls, want.IPCalls):
		s.t.Errorf("event %d: the kept clone's execution differs from a fresh clone's", s.e.Seq)
	case kept.StateHash() != fresh.StateHash() || kept.Locator().Layout() != fresh.Locator().Layout():
		s.t.Errorf("event %d: the kept clone's state differs from a fresh clone's", s.e.Seq)
	default:
		for _, f := range want.Record.Outputs {
			kv, kok := kept.Locator().Var(f.Name)
			fv, fok := fresh.Locator().Var(f.Name)
			if kv != fv || kok != fok {
				s.t.Errorf("event %d: %s is handle %d (%v) in the kept clone, %d (%v) in a fresh one", s.e.Seq, f.Name, kv, kok, fv, fok)
			}
		}
	}
	s.checks++
	return served
}

func (s *shadowSink) Executed(*games.Execution) {}

// TestShadowCloneMatchesFresh: across three sessions on one device,
// with and without locations the live store gains through ApplyOutputs
// (which a session's Reset then drops), every shadow check the device
// runs on its kept clone gives the execution, state digest and handles
// a fresh Clone gives.
func TestShadowCloneMatchesFresh(t *testing.T) {
	for _, name := range []string{"Colorphun", "CandyCrush", "ABEvolution", "ChaseWhisply", "RaceKings"} {
		gen, err := workload.ForGame(name)
		if err != nil {
			t.Fatal(err)
		}
		tab := buildFlatTable(t, name, 2)
		for _, grow := range []bool{false, true} {
			var game games.Game = games.MustNew(name)
			if grow {
				game = &growingGame{Game: game}
			}
			d := NewDevice(game)
			sink := &shadowSink{t: t, tab: tab, d: d}
			for _, seed := range []uint64{0xA1, 0xB7, 0xA1} {
				d.Play(Session{Gen: gen, Seed: seed, Duration: testDur, VerifyAll: true}, sink)
			}
			if sink.checks < 10 {
				t.Errorf("%s (grow %v): only %d shadow checks", name, grow, sink.checks)
			}
		}
	}
}

// applySink hands the device one of its tables, switching every 64
// events, and checks that each hit the runtime applied by handle left
// the live game as ApplyOutputs by name leaves a clone of it. With mask
// set it first hides every other output name from the device's plan,
// so those outputs take the by-name path.
type applySink struct {
	t    *testing.T
	tabs []memo.Table
	d    *Device
	mask bool
	n    int
	twin games.Game // the live game before the latest hit, served applied by name
	hits int
}

func (s *applySink) Deliver(*events.Event) memo.Table {
	s.check()
	s.n++
	return s.tabs[s.n/64%len(s.tabs)]
}

// check compares the live game with the twin of its latest hit.
func (s *applySink) check() {
	if s.twin == nil {
		return
	}
	live := s.d.game
	if live.StateHash() != s.twin.StateHash() || live.Locator().Layout() != s.twin.Locator().Layout() {
		s.t.Errorf("hit %d: outputs applied by handle leave state %x (layout %d), by name %x (layout %d)",
			s.hits, live.StateHash(), live.Locator().Layout(), s.twin.StateHash(), s.twin.Locator().Layout())
	}
	s.twin = nil
}

func (s *applySink) Probed(int64, units.Size, bool, int64) {}

func (s *applySink) Hit(_ int64, served []trace.Field, _ *games.Execution) []trace.Field {
	s.twin = s.d.game.Clone(nil)
	s.twin.ApplyOutputs(served)
	if s.mask {
		for i := 1; i < len(s.d.plan.outs); i += 2 {
			s.d.plan.outs[i] = -1
		}
	}
	s.hits++
	return served
}

func (s *applySink) Executed(*games.Execution) {}

// TestServedOutputsByHandleMatchByName: applying a hit's outputs through
// the plan's compiled output-name pool leaves the store as applying them
// by name does, across swaps between two flat tables and a map table,
// store inserts that change the layout mid-session, and outputs the
// plan holds no location for.
func TestServedOutputsByHandleMatchByName(t *testing.T) {
	for _, name := range []string{"CandyCrush", "MemoryGame", "ABEvolution", "ChaseWhisply"} {
		gen, err := workload.ForGame(name)
		if err != nil {
			t.Fatal(err)
		}
		tabs := []memo.Table{buildFlatTable(t, name, 2), buildFlatTable(t, name, 3), buildTable(t, name, 2)}
		for _, mask := range []bool{false, true} {
			game := &growingGame{Game: games.MustNew(name)}
			d := NewDevice(game)
			sink := &applySink{t: t, tabs: tabs, d: d, mask: mask}
			for _, seed := range []uint64{0xA1, 0xB7} {
				d.Play(Session{Gen: gen, Seed: seed, Duration: testDur}, sink)
				sink.check()
			}
			if sink.hits < 10 || game.n < 400 {
				t.Errorf("%s (mask %v): %d hits over %d events, too few to check", name, mask, sink.hits, game.n)
			}
		}
	}
}
