package cloud

import (
	"bytes"
	"reflect"
	"testing"

	"snip/internal/games"
	"snip/internal/trace"
)

// TestBatchCodecGoldenLogs: every bundled game's golden log survives
// the batch codec exactly, and replaying the decoded log reproduces the
// digest TestReplayGolden pins for the original.
func TestBatchCodecGoldenLogs(t *testing.T) {
	for _, game := range games.Names() {
		in := &trace.SessionBatch{Game: game, Sessions: []trace.SessionEvents{
			{Seed: replayGoldenSeed, Log: recordLog(t, game, replayGoldenSeed)},
		}}
		var wire bytes.Buffer
		if err := trace.EncodeBatch(&wire, in); err != nil {
			t.Fatalf("%s: %v", game, err)
		}
		out, err := trace.DecodeBatch(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", game, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%s: decoded batch differs from the encoded one", game)
		}
		ds, err := Replay(game, replayGoldenSeed, out.Sessions[0].Log)
		if err != nil {
			t.Fatalf("%s: %v", game, err)
		}
		if got, want := digestDataset(ds), replayGoldenDigests[game]; got != want {
			t.Errorf("%s: replay of the decoded log has digest %#x, want %#x", game, got, want)
		}
	}
}

// codecBatchSessions is the session count of a BenchmarkBatchCodec
// batch — the size the ingest benchmark uploads.
const codecBatchSessions = 4

// BenchmarkBatchCodec encodes and decodes one batch of each bundled
// game: the golden session and the next three seeds' sessions. B/batch
// is the batch's size on the wire.
func BenchmarkBatchCodec(b *testing.B) {
	for _, game := range games.Names() {
		batch := &trace.SessionBatch{Game: game}
		for i := uint64(0); i < codecBatchSessions; i++ {
			seed := replayGoldenSeed + i
			batch.Sessions = append(batch.Sessions, trace.SessionEvents{Seed: seed, Log: recordLog(b, game, seed)})
		}
		var wire bytes.Buffer
		if err := trace.EncodeBatch(&wire, batch); err != nil {
			b.Fatal(err)
		}
		b.Run(game, func(b *testing.B) {
			b.Run("encode", func(b *testing.B) {
				b.ReportAllocs()
				var buf bytes.Buffer
				for i := 0; i < b.N; i++ {
					buf.Reset()
					if err := trace.EncodeBatch(&buf, batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(wire.Len()), "B/batch")
			})
			b.Run("decode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := trace.DecodeBatch(bytes.NewReader(wire.Bytes())); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(wire.Len()), "B/batch")
			})
		})
	}
}
