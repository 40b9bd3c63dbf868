package games_test

import (
	"reflect"
	"runtime"
	"testing"

	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/trace"
)

// TestNoLogMatchesLog drives two instances of every game through the same
// sessions, one logging into a profile and one not, and checks after
// every event that everything but the logged inputs is identical: the
// outputs (in the profile's row on one side, in the record on the other),
// the state-changed bit, the instruction weight, the work, and the state.
// A clone of the logging game processing without a profile (the device's
// shadow guard) must agree too.
func TestNoLogMatchesLog(t *testing.T) {
	for _, name := range games.Names() {
		for _, seed := range []uint64{3, 17, 41} {
			logged, bare := games.MustNew(name), games.MustNew(name)
			logged.Reset(seed)
			bare.Reset(seed)
			prof := &trace.Dataset{Game: name}
			for i, e := range sessionEvents(t, name, seed, 8) {
				shadow := logged.Clone(nil).Process(e, nil)
				want := logged.Process(e, prof)
				if prof.Len() != i+1 {
					t.Fatalf("%s seed %d event %d: profile has %d rows", name, seed, i, prof.Len())
				}
				row := prof.Record(i)
				if r := want.Record; r.Inputs != nil || r.Outputs != nil || r.StateChanged != row.StateChanged || r.Instr != row.Instr {
					t.Fatalf("%s seed %d event %d: logged record %+v disagrees with its row", name, seed, i, r)
				}
				for _, got := range []*games.Execution{bare.Process(e, nil), shadow} {
					if !sameWork(got, want, row) {
						t.Fatalf("%s seed %d event %d (%v): no-log execution differs from the logged one", name, seed, i, e.Type)
					}
					r := got.Record
					if r.Inputs != nil || r.PreStateHash != 0 || r.EventHash != 0 {
						t.Fatalf("%s seed %d event %d: no-log record logged inputs %v, pre-state %x, event %x",
							name, seed, i, r.Inputs, r.PreStateHash, r.EventHash)
					}
				}
				if bare.StateHash() != logged.StateHash() {
					t.Fatalf("%s seed %d event %d: state diverged", name, seed, i)
				}
			}
		}
	}
}

// sameWork reports whether a no-log execution agrees with a logged one,
// whose profile row is row, on everything but the logged inputs.
func sameWork(a, b *games.Execution, row *trace.Record) bool {
	ra, rb := a.Record, b.Record
	return reflect.DeepEqual(ra.Outputs, row.Outputs) && ra.StateChanged == rb.StateChanged &&
		ra.Instr == rb.Instr && ra.EventSeq == rb.EventSeq && ra.EventType == rb.EventType &&
		ra.Time == rb.Time && reflect.DeepEqual(a.CPUFuncs, b.CPUFuncs) && reflect.DeepEqual(a.IPCalls, b.IPCalls)
}

// TestNoLogVSyncAllocs measures a no-log VSync midway through a session
// on identical clones, so every run starts from the same state. A game
// reuses one execution context, and a clone's starts with buffers the
// size of its original's, so not even a clone's first handler call
// allocates. Logging inputs would add the growth of the profile.
// (TestCtxNoLogSkipsStoreDigest covers the pre-state hash, which
// allocates nothing once its digest is cached.)
func TestNoLogVSyncAllocs(t *testing.T) {
	const runs = 20
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 5, 6)
		g := games.MustNew(name)
		g.Reset(5)
		var vsync *events.Event
		for i, e := range evs {
			if i >= len(evs)/2 && e.Type == events.VSync {
				vsync = e
				break
			}
			g.Process(e, nil)
		}
		if vsync == nil {
			t.Fatalf("%s: no VSync in the second half of the session", name)
		}
		clones := make([]games.Game, runs)
		for i := range clones {
			clones[i] = g.Clone(nil)
		}
		if got := mallocs(func() {
			for _, c := range clones {
				c.Process(vsync, nil)
			}
		}); got != 0 {
			t.Errorf("%s: no-log VSync Process on a fresh clone allocates %d times in %d runs, want 0", name, got, runs)
		}
	}
}

// TestWarmProcessAllocs: once a game has played the first half of a
// session, its no-log Process allocates nothing over the second half,
// whatever the handler records.
func TestWarmProcessAllocs(t *testing.T) {
	for _, name := range games.Names() {
		evs := sessionEvents(t, name, 7, 10)
		g := games.MustNew(name)
		g.Reset(7)
		half := len(evs) / 2
		for _, e := range evs[:half] {
			g.Process(e, nil)
		}
		if got := mallocs(func() {
			for _, e := range evs[half:] {
				g.Process(e, nil)
			}
		}); got != 0 {
			t.Errorf("%s: warm no-log Process allocates %d times over %d events, want 0", name, got, len(evs)-half)
		}
	}
}

// mallocs returns the exact number of allocations f makes;
// testing.AllocsPerRun would round an average below one down to 0.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkProcess times one Process call per op for every game, logging
// into a profile and not, cycling through a 15 s session and resetting
// the game and the profile (untimed) when it wraps.
func BenchmarkProcess(b *testing.B) {
	for _, name := range games.Names() {
		evs := sessionEvents(b, name, 1, 15)
		for _, mode := range []struct {
			name string
			log  bool
		}{{"log", true}, {"nolog", false}} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				g := games.MustNew(name)
				g.Reset(1)
				var prof *trace.Dataset
				if mode.log {
					prof = &trace.Dataset{Game: name}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i, k := 0, 0; i < b.N; i, k = i+1, k+1 {
					if k == len(evs) {
						b.StopTimer()
						g.Reset(1)
						if mode.log {
							prof = &trace.Dataset{Game: name}
						}
						k = 0
						b.StartTimer()
					}
					g.Process(evs[k], prof)
				}
			})
		}
	}
}
