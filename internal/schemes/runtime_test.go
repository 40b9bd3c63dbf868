package schemes

import (
	"runtime"
	"slices"
	"testing"

	"snip/internal/chaos"
	"snip/internal/events"
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/sensors"
	"snip/internal/trace"
	"snip/internal/units"
	"snip/internal/workload"
)

// TestSynthesizedSessionsInDeliveryOrder: synthesis emits every session
// in (Time, Seq) order, so Device.Play never sorts. Each reading yields
// at most one event, at the reading's time, after the VSync ticks due by
// then; a stream is time-ordered because sensors.Stream.Append rejects
// readings that go back in time, the sensor chaos's stale ones included.
func TestSynthesizedSessionsInDeliveryOrder(t *testing.T) {
	inj := chaos.New(chaos.Profile{Name: "sensors", Seed: 3, SensorDropRate: 0.05, SensorDupRate: 0.05,
		SensorStuckRate: 0.05, SensorOutOfOrderRate: 0.05})
	var synth events.Synthesizer
	for _, name := range games.Names() {
		gen, err := workload.ForGame(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{3, 11, 29} {
			stream := gen.Generate(seed, 20*units.Second)
			for _, s := range []*sensors.Stream{stream, inj.PerturbStream(seed, stream)} {
				cfg := events.DefaultSynthesizerConfig()
				cfg.FrameBase = int64(seed%1_000_000) * 10_000_000
				synth.Reset(cfg)
				evs := synth.SynthesizeAll(s)
				if len(evs) < 1000 {
					t.Fatalf("%s seed %d: only %d events", name, seed, len(evs))
				}
				if !inDeliveryOrder(evs) || !slices.IsSortedFunc(evs, deliveryOrder) {
					t.Fatalf("%s seed %d: synthesized events are not in (Time, Seq) order", name, seed)
				}
			}
		}
	}
}

// TestSessionEventsMatchFreshSynthesis: a device's reused synthesizer
// yields each session's events exactly as a fresh one does, and the
// events-only log a session uploads holds them: same types, sequence
// numbers, times and values.
func TestSessionEventsMatchFreshSynthesis(t *testing.T) {
	for _, name := range games.Names() {
		gen, err := workload.ForGame(name)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDevice(games.MustNew(name))
		for _, seed := range []uint64{7, 8, 7} {
			s := Session{Gen: gen, Seed: seed, Duration: testDur, Log: &trace.EventLog{}}
			d.Play(s, &benchSink{})
			cfg := events.DefaultSynthesizerConfig()
			cfg.FrameBase = int64(seed%1_000_000) * 10_000_000
			var want []trace.LoggedEvent
			for _, e := range events.NewSynthesizer(cfg).SynthesizeAll(gen.Generate(seed, testDur)) {
				if d.handled[e.Type] {
					want = append(want, trace.LoggedEvent{Type: e.Type.String(), Seq: e.Seq, Time: e.Time, Values: e.Values})
				}
			}
			if !slices.EqualFunc(s.Log.Events, want, func(a, b trace.LoggedEvent) bool {
				return a.Type == b.Type && a.Seq == b.Seq && a.Time == b.Time && slices.Equal(a.Values, b.Values)
			}) {
				t.Fatalf("%s seed %d: the logged session differs from a fresh synthesis", name, seed)
			}
		}
	}
}

// benchSink probes tab, or runs every handler when tab is nil, and books
// nothing but the shadow checks it sees.
type benchSink struct {
	tab    memo.Table
	checks int64
}

func (s *benchSink) Deliver(*events.Event) memo.Table      { return s.tab }
func (s *benchSink) Probed(int64, units.Size, bool, int64) {}
func (s *benchSink) Executed(*games.Execution)             {}
func (s *benchSink) Hit(_ int64, served []trace.Field, truth *games.Execution) []trace.Field {
	if truth != nil {
		s.checks++
	}
	return served
}

// BenchmarkDevicePlay times Device.Play on one 5 s session per op for
// every game, probing a table (benchTable), probing it with every hit
// shadow-verified, and with no table, and reports allocs/event: what the
// device allocates per delivered event, the session's sensor stream and
// synthesis included. ci.sh gates allocs/event per game and mode. A
// shadow run that verifies no hit fails: it would gate nothing.
func BenchmarkDevicePlay(b *testing.B) {
	for _, name := range games.Names() {
		gen, err := workload.ForGame(name)
		if err != nil {
			b.Fatal(err)
		}
		s := Session{Gen: gen, Seed: 0xC3, Duration: 5 * units.Second}
		tab := benchTable(b, name, s)
		for _, mode := range []struct {
			name   string
			tab    memo.Table
			verify bool
		}{{"table", tab, false}, {"shadow", tab, true}, {"notable", nil, false}} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				d := NewDevice(games.MustNew(name))
				sink := &benchSink{tab: mode.tab}
				s := s
				s.VerifyAll = mode.verify
				d.Play(s, sink) // grow the device's buffers
				var before, after runtime.MemStats
				var evs int64
				b.ReportAllocs()
				b.ResetTimer()
				runtime.ReadMemStats(&before)
				for i := 0; i < b.N; i++ {
					evs += d.Play(s, sink).Events
				}
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(evs), "allocs/event")
				if mode.verify && sink.checks == 0 {
					b.Fatalf("%s: the shadow mode verified no hit", name)
				}
			})
		}
	}
}

// benchTable is BenchmarkDevicePlay's table for game, trained on two
// other sessions. Greenwall's keys hold state only the session that
// reached it has, so a table trained on other sessions never hits its
// benchmarked session s: its table also learns s, or the shadow mode
// would verify nothing.
func benchTable(tb testing.TB, game string, s Session) *memo.FlatTable {
	tb.Helper()
	if game != "Greenwall" {
		return buildFlatTable(tb, game, 2)
	}
	prof := trainingProfile(tb, game, 2)
	r, err := Profile(game, s.Seed, s.Duration)
	if err != nil {
		tb.Fatal(err)
	}
	prof.Merge(r.Dataset)
	ft, err := memo.Flatten(tableFrom(tb, prof))
	if err != nil {
		tb.Fatal(err)
	}
	return ft
}
