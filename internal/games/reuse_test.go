package games_test

import (
	"reflect"
	"slices"
	"testing"

	"snip/internal/games"
	"snip/internal/soc"
	"snip/internal/trace"
)

// snapshot deep-copies an execution, so it can be compared after the
// game that returned it has moved on.
func snapshot(x *games.Execution) games.Execution {
	r := *x.Record
	r.Inputs, r.Outputs = slices.Clone(r.Inputs), slices.Clone(r.Outputs)
	return games.Execution{Record: &r, CPUFuncs: slices.Clone(x.CPUFuncs), IPCalls: slices.Clone(x.IPCalls)}
}

// TestCloneKeepsOriginalExecution: a game's last Execution stays its own
// until its next Process. A clone processing events, as the shadow guard
// does, writes only into its own execution.
func TestCloneKeepsOriginalExecution(t *testing.T) {
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 23, 6)
		g := games.MustNew(name)
		g.Reset(23)
		for i, e := range evs {
			x := g.Process(e, nil)
			want := snapshot(x)
			c := g.Clone()
			for _, next := range evs[i:min(i+3, len(evs))] {
				c.Process(next, nil)
			}
			if got := snapshot(x); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s event %d (%v): a clone's Process changed the original's execution", name, i, e.Type)
			}
		}
	}
}

// TestOutputsNilWithoutOutputs: an event whose handler writes no output
// leaves Record.Outputs nil, even right after an event that wrote some.
// A logging twin's profile row says which events wrote none.
func TestOutputsNilWithoutOutputs(t *testing.T) {
	afterSome := 0
	for _, name := range games.Names() {
		g, twin := games.MustNew(name), games.MustNew(name)
		g.Reset(31)
		twin.Reset(31)
		prof := &trace.Dataset{Game: name}
		wrote := false
		for i, e := range sessionEvents(t, name, 31, 8) {
			x := g.Process(e, nil)
			twin.Process(e, prof)
			if len(prof.Record(i).Outputs) > 0 {
				wrote = true
				continue
			}
			if x.Record.Outputs != nil {
				t.Fatalf("%s event %d (%v): no outputs written, Record.Outputs = %v", name, i, e.Type, x.Record.Outputs)
			}
			if wrote {
				afterSome++
			}
			wrote = false
		}
	}
	if afterSome == 0 {
		t.Fatal("no event without outputs followed one with outputs")
	}
}

// TestWorkIsACappedView: Work allocates nothing, and appending to its
// IPCalls copies them instead of writing into the execution's buffer.
func TestWorkIsACappedView(t *testing.T) {
	checked := false
	for _, name := range games.Names() {
		g := games.MustNew(name)
		g.Reset(37)
		for _, e := range sessionEvents(t, name, 37, 4) {
			x := g.Process(e, nil)
			if len(x.IPCalls) == 0 || len(x.IPCalls) == cap(x.IPCalls) {
				continue
			}
			if n := testing.AllocsPerRun(100, func() { _ = x.Work() }); n != 0 {
				t.Fatalf("%s: Work allocates %v times", name, n)
			}
			buf := slices.Clone(x.IPCalls[:cap(x.IPCalls)])
			w := x.Work()
			w.IPCalls = append(w.IPCalls, soc.IPCall{Op: "appended"})
			if !slices.Equal(x.IPCalls[:cap(x.IPCalls)], buf) {
				t.Fatalf("%s: appending to Work().IPCalls wrote into the execution's buffer", name)
			}
			checked = true
			break
		}
	}
	if !checked {
		t.Fatal("no execution had IP calls and spare buffer capacity")
	}
}

// TestHandlesStable: a game's handles are constants. Every seed's Reset
// declares the same names under the same handles, a clone keeps them,
// and a session adds no location, logging or not, on the game, on its
// shadow clones or through ApplyOutputs, so the layout never moves.
func TestHandlesStable(t *testing.T) {
	for _, name := range games.Names() {
		g := games.MustNew(name)
		want, _ := games.Handles(g)
		if len(want) == 0 || want[0] != "rngstate" {
			t.Fatalf("%s: handles %v do not start with rngstate", name, want)
		}
		for _, seed := range []uint64{2, 7, 1234} {
			g.Reset(seed)
			if got, _ := games.Handles(g); !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: handles %v, want %v", name, seed, got, want)
			}
			_, layout := games.Handles(g)
			prof := &trace.Dataset{Game: name}
			twin := g.Clone()
			for i, e := range sessionEvents(t, name, seed, 6) {
				c := g.Clone()
				x := c.Process(e, nil)
				twin.ApplyOutputs(x.Record.Outputs)
				if got, _ := games.Handles(c); !slices.Equal(got, want) {
					t.Fatalf("%s seed %d event %d: clone's handles %v, want %v", name, seed, i, got, want)
				}
				g.Process(e, prof)
			}
			for _, h := range []games.Game{g, twin} {
				if got, l := games.Handles(h); !slices.Equal(got, want) || l != layout {
					t.Fatalf("%s seed %d: after a session handles %v layout %d, want %v layout %d", name, seed, got, l, want, layout)
				}
			}
		}
	}
}

// TestResetMatchesFresh: Reset keeps a store that holds exactly the
// locations its previous Reset declared, and replaces one that gained a
// location since. Either way a reset game must read as a freshly built
// one: the same handles, the same state, and the same executions.
func TestResetMatchesFresh(t *testing.T) {
	const seed = 11
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, seed, 6)
		for _, grow := range []bool{false, true} {
			g := games.MustNew(name)
			for _, e := range evs {
				g.ApplyOutputs(g.Process(e, nil).Record.Outputs)
			}
			if grow {
				g.ApplyOutputs([]trace.Field{{Name: "state.undeclared", Category: trace.OutHistory, Size: 8, Value: 3}})
			}
			g.Reset(seed)
			fresh := games.MustNew(name)
			fresh.Reset(seed)
			got, _ := games.Handles(g)
			want, _ := games.Handles(fresh)
			if !slices.Equal(got, want) || g.StateHash() != fresh.StateHash() {
				t.Fatalf("%s grow=%v: reset game's handles %v hash %x, fresh %v hash %x", name, grow, got, g.StateHash(), want, fresh.StateHash())
			}
			for i, e := range evs {
				x, y := snapshot(g.Process(e, nil)), snapshot(fresh.Process(e, nil))
				if !reflect.DeepEqual(x, y) {
					t.Fatalf("%s grow=%v event %d: reset game executes %+v, fresh %+v", name, grow, i, x.Record, y.Record)
				}
			}
		}
	}
}
