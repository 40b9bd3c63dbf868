package cloud

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"snip/internal/games"
	"snip/internal/pfi"
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

// TestReplayReusedGames: Replay borrows reset games and logs into reused
// scratch buffers. Neither a replay that fails partway, which hands back
// a game mid-session and buffers holding rows, nor replays of every game
// interleaved on several goroutines may change what a replay rebuilds.
// Which kept game or buffer a replay gets is up to sync.Pool, so every
// replay is checked against the golden digest.
func TestReplayReusedGames(t *testing.T) {
	names := games.Names()
	logs := make(map[string]*trace.EventLog, len(names))
	for _, game := range names {
		logs[game] = recordLog(t, game, replayGoldenSeed)
	}
	replay := func(game string) error {
		ds, err := Replay(game, replayGoldenSeed, logs[game])
		if err != nil {
			return fmt.Errorf("%s: %v", game, err)
		}
		if got, want := digestDataset(ds), replayGoldenDigests[game]; got != want {
			return fmt.Errorf("%s: digest %#x, want %#x", game, got, want)
		}
		return nil
	}
	for _, game := range names {
		bad := &trace.EventLog{Game: game, Events: slices.Clone(logs[game].Events)}
		bad.Events[len(bad.Events)/2].Type = "NoSuchType"
		if _, err := Replay(game, replayGoldenSeed, bad); !errors.Is(err, ErrBadLog) {
			t.Fatalf("%s: Replay error %v, want ErrBadLog", game, err)
		}
		if err := replay(game); err != nil {
			t.Fatal(err)
		}
	}
	const workers, rounds = 4, 2
	errs := make(chan error, workers)
	for w := range workers {
		go func() {
			for i := range rounds * len(names) {
				if err := replay(names[(w+i)%len(names)]); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestReplayValueWidths histograms the byte width of every input value
// the golden replays log: the premise of the key-hash kernel's
// shortcuts, which fold a value below 2^16 in one or two byte steps
// instead of eight. Run with -v to see the histogram.
func TestReplayValueWidths(t *testing.T) {
	var width [9]int
	for _, game := range games.Names() {
		ds, err := Replay(game, replayGoldenSeed, recordLog(t, game, replayGoldenSeed))
		if err != nil {
			t.Fatalf("%s: %v", game, err)
		}
		for i := 0; i < ds.Len(); i++ {
			for _, c := range ds.Row(i).Inputs {
				width[(bits.Len64(c.Value)+7)/8]++
			}
		}
	}
	total := 0
	for _, n := range width {
		total += n
	}
	short := width[0] + width[1] + width[2]
	t.Logf("input cells by value width in bytes (0 = zero): %v; %d of %d (%.1f%%) fit in 2 bytes",
		width, short, total, 100*float64(short)/float64(total))
	if 2*short < total {
		t.Errorf("only %d of %d input values fit in 2 bytes; the kernel's shortcuts no longer pay", short, total)
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

// ingestBatches is how many batches of codecBatchSessions sessions
// BenchmarkProfilerIngest feeds each game's profiler: the batches of one
// perfbench ingest cycle.
const ingestBatches = 4

// BenchmarkProfilerIngest feeds every bundled game's Profiler its
// ingest cycle, 4 batches of 4 sessions through IngestLogs, on one
// worker; an op is one cycle of every game into fresh profilers. Its
// B/op is what the replays and the growing profiles allocate, which
// ci.sh gates.
func BenchmarkProfilerIngest(b *testing.B) {
	names := games.Names()
	batches := make([][][]SessionLog, len(names))
	for g, game := range names {
		for k := range ingestBatches {
			var batch []SessionLog
			for i := range codecBatchSessions {
				seed := replayGoldenSeed + uint64(k*codecBatchSessions+i)
				batch = append(batch, SessionLog{Seed: seed, Log: recordLog(b, game, seed)})
			}
			batches[g] = append(batches[g], batch)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for g, game := range names {
			p := NewProfiler(game, pfi.DefaultConfig())
			for _, batch := range batches[g] {
				if err := p.IngestLogs(1, batch); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
