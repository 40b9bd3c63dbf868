package pfi

import (
	"testing"

	"snip/internal/games"
)

// benchSessions pins the profile BenchmarkPFIRun searches: the golden
// profile's seeds and session length, grown to the 16 sessions a game's
// cloud profile reaches after three OTA rounds of four uploads each.
const benchSessions = 16

// BenchmarkPFIRun times one DefaultConfig search per bundled game on a
// pinned 16-session profile, one sub-benchmark per game.
func BenchmarkPFIRun(b *testing.B) {
	for _, game := range games.Names() {
		ds := recordProfile(b, game, benchSessions)
		b.Run(game, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(ds, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
