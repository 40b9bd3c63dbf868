package cloud

import (
	"bytes"
	"runtime"
	"testing"

	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/pfi"
	"snip/internal/trace"
)

// codecDeltaSessions is how many sessions each learn round uploads —
// the round size of the learn benchmark.
const codecDeltaSessions = 4

// learnDeltaRounds plays game's learn shape on a Profiler: a cold round
// of codecDeltaSessions sessions, a rebuild, a second round and a
// rebuild. Each session is one testDur Baseline run; the seeds continue
// from the golden log's. It returns the profiler, whose newest delta
// frame is the learn-shaped one, and the generation-1 table.
func learnDeltaRounds(tb testing.TB, game string) (*Profiler, *memo.FlatTable) {
	tb.Helper()
	p := NewProfiler(game, pfi.DefaultConfig())
	var base *memo.FlatTable
	seed := uint64(replayGoldenSeed)
	for round := 0; round < 2; round++ {
		for i := 0; i < codecDeltaSessions; i++ {
			if err := p.IngestLogs(1, []SessionLog{{Seed: seed, Log: recordLog(tb, game, seed)}}); err != nil {
				tb.Fatal(err)
			}
			seed++
		}
		up, err := p.Rebuild()
		if err != nil {
			tb.Fatal(err)
		}
		if round == 0 {
			base = up.Table.(*memo.FlatTable)
		}
	}
	return p, base
}

// learnDeltaFrame returns game's learn-shaped delta frame.
func learnDeltaFrame(tb testing.TB, game string) []byte {
	tb.Helper()
	p, _ := learnDeltaRounds(tb, game)
	frame, err := p.DeltaChainFrom(1)
	if err != nil || frame == nil {
		tb.Fatalf("%s: no delta frame from generation 1 (%v)", game, err)
	}
	return frame
}

// TestLearnDeltaFrames: every game's learn-shaped delta decodes, applies
// onto the generation-1 table to the rebuilt image and re-encodes to the
// bytes Rebuild served.
func TestLearnDeltaFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("records 8 sessions per game")
	}
	for _, game := range games.Names() {
		p, base := learnDeltaRounds(t, game)
		frame, err := p.DeltaChainFrom(1)
		if err != nil || frame == nil {
			t.Fatalf("%s: no delta frame from generation 1 (%v)", game, err)
		}
		chain, err := trace.DecodeDeltaChain(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("%s: %v", game, err)
		}
		got, err := memo.ApplyDeltaChain(base, chain)
		if err != nil {
			t.Fatalf("%s: %v", game, err)
		}
		want := p.Latest().Table.(*memo.FlatTable)
		if got.ArenaCRC() != chain.Deltas[0].ToCRC || !bytes.Equal(got.Image(), want.Image()) {
			t.Fatalf("%s: the decoded delta does not reproduce the rebuilt image", game)
		}
		var again bytes.Buffer
		if err := trace.EncodeDeltaChain(&again, chain); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), frame) {
			t.Fatalf("%s: re-encoding the decoded chain changed its bytes", game)
		}
	}
}

// BenchmarkDeltaCodec encodes and decodes each bundled game's
// learn-shaped delta (learnDeltaFrame). B/frame is the frame's size on
// the wire; decode also reports allocs/upsert, the heap allocations per
// decoded upsert, which ci.sh gates.
func BenchmarkDeltaCodec(b *testing.B) {
	for _, game := range games.Names() {
		frame := learnDeltaFrame(b, game)
		chain, err := trace.DecodeDeltaChain(bytes.NewReader(frame), 0)
		if err != nil {
			b.Fatal(err)
		}
		upserts := 0
		for _, d := range chain.Deltas {
			upserts += len(d.Upserts)
		}
		b.Run(game, func(b *testing.B) {
			b.Run("encode", func(b *testing.B) {
				b.ReportAllocs()
				var buf bytes.Buffer
				for i := 0; i < b.N; i++ {
					buf.Reset()
					if err := trace.EncodeDeltaChain(&buf, chain); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(frame)), "B/frame")
			})
			b.Run("decode", func(b *testing.B) {
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < b.N; i++ {
					if _, err := trace.DecodeDeltaChain(bytes.NewReader(frame), 0); err != nil {
						b.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(len(frame)), "B/frame")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*upserts), "allocs/upsert")
			})
		})
	}
}
