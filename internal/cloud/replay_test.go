package cloud

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"snip/internal/games"
	"snip/internal/schemes"
	"snip/internal/trace"
)

// replayGoldenSeed is the content seed the golden logs are recorded and
// replayed on; each log is one testDur Baseline session, recorded the
// device's way (only handled event types are logged).
const replayGoldenSeed = 0xA1

// replayGoldenDigests pins digestDataset of Replay on each bundled
// game's golden log. Every field the profiler trains on or the naive
// table keys on is covered, so any change to a handler, the state
// store's digests or the replay loop moves these; a pure speed-up of
// the replay path must not.
var replayGoldenDigests = map[string]uint64{
	"Colorphun":    0x7374793858289d90,
	"MemoryGame":   0x65e99622f3540b8e,
	"CandyCrush":   0x3a18616cda1959b6,
	"Greenwall":    0x9b2a9563d40e69c0,
	"ABEvolution":  0x7e5ce1cdc1cc77bf,
	"ChaseWhisply": 0x331876fbcbff6225,
	"RaceKings":    0xa36f5cb00e26139d,
}

// recordLog records the events-only log of one Baseline session.
func recordLog(tb testing.TB, game string, seed uint64) *trace.EventLog {
	tb.Helper()
	r, err := schemes.Run(schemes.Config{
		Game: game, Seed: seed, Duration: testDur,
		Scheme: schemes.Baseline, CollectEventLog: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return r.EventLog
}

// digestDataset hashes every record of a replayed dataset: identity,
// PreStateHash, EventHash, Instr, StateChanged and every input and
// output field (name, category, size and value), in record order.
func digestDataset(ds *trace.Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	s := func(v string) {
		u(uint64(len(v)))
		h.Write([]byte(v))
	}
	fields := func(fs []trace.Field) {
		u(uint64(len(fs)))
		for _, f := range fs {
			s(f.Name)
			u(uint64(f.Category))
			u(uint64(f.Size))
			u(f.Value)
		}
	}
	u(uint64(ds.Len()))
	for i := 0; i < ds.Len(); i++ {
		r := ds.Record(i)
		u(uint64(r.EventSeq))
		s(r.EventType)
		u(uint64(r.Time))
		u(r.PreStateHash)
		u(r.EventHash)
		u(uint64(r.Instr))
		if r.StateChanged {
			u(1)
		} else {
			u(0)
		}
		fields(r.Inputs)
		fields(r.Outputs)
	}
	return h.Sum64()
}

// TestReplayGolden pins the complete replayed profile of every bundled
// game on a fixed seed and recorded log.
func TestReplayGolden(t *testing.T) {
	for _, game := range games.Names() {
		log := recordLog(t, game, replayGoldenSeed)
		ds, err := Replay(game, replayGoldenSeed, log)
		if err != nil {
			t.Fatalf("%s: %v", game, err)
		}
		if ds.Len() == 0 {
			t.Fatalf("%s: empty replay", game)
		}
		if got, want := digestDataset(ds), replayGoldenDigests[game]; got != want {
			t.Errorf("%s: digest %#x, want %#x", game, got, want)
		}
	}
}

// BenchmarkReplay times one Replay of each bundled game's golden log,
// one sub-benchmark per game. Besides allocs/op it reports allocs/record,
// the heap allocations per replayed record, which ci.sh gates.
func BenchmarkReplay(b *testing.B) {
	for _, game := range games.Names() {
		log := recordLog(b, game, replayGoldenSeed)
		b.Run(game, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rows := 0
			for i := 0; i < b.N; i++ {
				ds, err := Replay(game, replayGoldenSeed, log)
				if err != nil {
					b.Fatal(err)
				}
				rows += ds.Len()
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(rows), "allocs/record")
		})
	}
}
