package games_test

import (
	"reflect"
	"testing"

	"snip/internal/events"
	"snip/internal/games"
)

// TestNoLogMatchesLog drives two instances of every game through the same
// sessions, one logging inputs and one not, and checks after every event
// that everything but the logged inputs is identical: outputs, the
// state-changed bit, the instruction weight, the work, and the state. A
// clone of the logging game processing without logs (the device's shadow
// guard) must agree too.
func TestNoLogMatchesLog(t *testing.T) {
	for _, name := range games.Names() {
		for _, seed := range []uint64{3, 17, 41} {
			logged, bare := games.MustNew(name), games.MustNew(name)
			logged.Reset(seed)
			bare.Reset(seed)
			for i, e := range sessionEvents(t, name, seed, 8) {
				shadow := logged.Clone().Process(e, false)
				want := logged.Process(e, true)
				for _, got := range []*games.Execution{bare.Process(e, false), shadow} {
					if !sameWork(got, want) {
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

// sameWork reports whether two executions agree on everything but the
// logged inputs.
func sameWork(a, b *games.Execution) bool {
	ra, rb := a.Record, b.Record
	return reflect.DeepEqual(ra.Outputs, rb.Outputs) && ra.StateChanged == rb.StateChanged &&
		ra.Instr == rb.Instr && ra.EventSeq == rb.EventSeq && ra.EventType == rb.EventType &&
		ra.Time == rb.Time && reflect.DeepEqual(a.CPUFuncs, b.CPUFuncs) && reflect.DeepEqual(a.IPCalls, b.IPCalls)
}

// noLogVSyncAllocs pins the allocations of one no-log VSync Process per
// game: the context that holds the record and the execution, plus the
// growth of the output, CPU and IP slices. Logging inputs would add the
// growth of the Inputs slice. (TestCtxNoLogSkipsStoreDigest covers the
// pre-state hash, which allocates nothing once its digest is cached.)
var noLogVSyncAllocs = map[string]float64{
	"Colorphun":    7,
	"MemoryGame":   6,
	"CandyCrush":   6,
	"Greenwall":    7,
	"ABEvolution":  7,
	"ChaseWhisply": 6,
	"RaceKings":    7,
}

// TestNoLogVSyncAllocs measures a no-log VSync midway through a session
// on identical clones, so every run starts from the same state.
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
			g.Process(e, false)
		}
		if vsync == nil {
			t.Fatalf("%s: no VSync in the second half of the session", name)
		}
		clones := make([]games.Game, runs+1)
		for i := range clones {
			clones[i] = g.Clone()
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			clones[next].Process(vsync, false)
			next++
		})
		if want := noLogVSyncAllocs[name]; got != want {
			t.Errorf("%s: no-log VSync Process allocates %v times, pinned at %v", name, got, want)
		}
	}
}

// BenchmarkProcess times one Process call per op for every game, logging
// inputs and not, cycling through a 15 s session and resetting the game
// (untimed) when it wraps.
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
				b.ReportAllocs()
				b.ResetTimer()
				for i, k := 0, 0; i < b.N; i, k = i+1, k+1 {
					if k == len(evs) {
						b.StopTimer()
						g.Reset(1)
						k = 0
						b.StartTimer()
					}
					g.Process(evs[k], mode.log)
				}
			})
		}
	}
}
