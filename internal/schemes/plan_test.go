package schemes

import (
	"fmt"
	"testing"

	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/trace"
	"snip/internal/units"
	"snip/internal/workload"
)

// checkedTable wraps a deployed table and checks every probe the device
// makes against a Lookup whose resolver locates each selected field by
// name afresh: the uncompiled reading the device's key plan compiles.
type checkedTable struct {
	memo.Table
	t          *testing.T
	game       games.Game
	e          *events.Event
	hits, miss int
}

func (c *checkedTable) Probe(eventType string, eventKey, stateKey uint64) (memo.Entry, int64, units.Size, bool) {
	entry, probes, cmp, hit := c.Table.Probe(eventType, eventKey, stateKey)
	loc, e := c.game.Locator(), c.e
	we, wp, wc, wh := c.Table.Lookup(eventType, func(name string) (uint64, bool) {
		l, ok := loc.Locate(e.Type, name)
		return loc.Peek(l, e), ok
	})
	if hit != wh || probes != wp || cmp != wc || (hit && entry.StateKey() != we.StateKey()) {
		c.t.Errorf("%s event %d: plan probe (hit %v, %d probes, %v) != name lookup (hit %v, %d probes, %v)",
			eventType, e.Seq, hit, probes, cmp, wh, wp, wc)
	}
	if hit {
		c.hits++
	} else {
		c.miss++
	}
	return entry, probes, cmp, hit
}

// swapSink hands the device one of two tables, switching every 64
// events, as a fleet device sees OTA swaps; it books nothing.
type swapSink struct {
	tabs [2]*checkedTable
	n    int
}

func (s *swapSink) Deliver(e *events.Event) memo.Table {
	s.n++
	c := s.tabs[s.n/64%2]
	c.e = e
	return c
}

func (s *swapSink) Probed(int64, units.Size, bool, int64) {}

func (s *swapSink) Hit(_ int64, served []trace.Field, _ *games.Execution) []trace.Field {
	return served
}

func (s *swapSink) Executed(*games.Execution) {}

// growingGame declares a new location every 200 events, before every
// other in sorted-name order, so each one drops the store's digests and
// changes its layout: every blob Loc compiled before it goes stale.
type growingGame struct {
	games.Game
	n int
}

func (g *growingGame) Process(e *events.Event, profile *trace.Dataset) *games.Execution {
	if g.n++; g.n%200 == 0 {
		g.ApplyOutputs([]trace.Field{{Name: fmt.Sprintf("state.!%05d", g.n), Category: trace.OutHistory, Value: 1}})
	}
	return g.Game.Process(e, profile)
}

// TestKeyPlanMatchesNameLookup: the device's compiled key plan probes
// exactly as resolving every selected field by name would, across table
// swaps and store inserts that drop digests mid-session.
func TestKeyPlanMatchesNameLookup(t *testing.T) {
	for _, name := range []string{"CandyCrush", "MemoryGame", "ABEvolution", "ChaseWhisply"} {
		gen, err := workload.ForGame(name)
		if err != nil {
			t.Fatal(err)
		}
		game := &growingGame{Game: games.MustNew(name)}
		sink := &swapSink{}
		for i, tab := range []memo.Table{buildFlatTable(t, name, 2), buildTable(t, name, 3)} {
			sink.tabs[i] = &checkedTable{Table: tab, t: t, game: game}
		}
		d := NewDevice(game)
		for _, seed := range []uint64{0xA1, 0xB7} {
			d.Play(Session{Gen: gen, Seed: seed, Duration: testDur}, sink)
		}
		for i, c := range sink.tabs {
			if c.hits == 0 || c.miss == 0 {
				t.Errorf("%s table %d: %d hits, %d misses; the check needs both", name, i, c.hits, c.miss)
			}
		}
		if game.n < 400 {
			t.Fatalf("%s: only %d events, too few to insert a location", name, game.n)
		}
	}
}
