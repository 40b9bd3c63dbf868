package fleet

import (
	"testing"

	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/pfi"
	"snip/internal/schemes"
	"snip/internal/trace"
)

// TestFleetSessionMatchesSchemesRun pins what lets the figures and the
// fleet share one device runtime: on every game, with the same flat
// table and seed, a one-device one-session fleet run (no guard, no
// client) delivers the same events and makes the same probes as a SNIP
// session of schemes.Run — same lookups, hits, probes and compared
// bytes.
func TestFleetSessionMatchesSchemesRun(t *testing.T) {
	for _, game := range games.Names() {
		t.Run(game, func(t *testing.T) {
			prof := &trace.Dataset{Game: game}
			for seed := uint64(0xA1); seed < 0xA3; seed++ {
				r, err := schemes.Profile(game, seed, testDur)
				if err != nil {
					t.Fatal(err)
				}
				prof.Merge(r.Dataset)
			}
			sel, err := pfi.Run(prof, pfi.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			table, err := memo.BuildFlat(prof, sel.Selection)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{7, 0xB2} {
				sr, err := schemes.Run(schemes.Config{Game: game, Seed: seed, Duration: testDur,
					Scheme: schemes.SNIP, Table: table})
				if err != nil {
					t.Fatal(err)
				}
				fr, err := Run(Config{Game: game, Devices: 1, SessionsPerDevice: 1,
					SessionDuration: testDur, SeedBase: seed, Table: memo.NewShared(table)})
				if err != nil {
					t.Fatal(err)
				}
				if fr.Events != int64(sr.Events) {
					t.Errorf("seed %d: fleet delivered %d events, schemes %d", seed, fr.Events, sr.Events)
				}
				if fr.Lookup != sr.Lookup {
					t.Errorf("seed %d: fleet lookups %+v, schemes %+v", seed, fr.Lookup, sr.Lookup)
				}
				if sr.Lookup.Hits == 0 {
					t.Errorf("seed %d: no hits, so the comparison shows nothing", seed)
				}
			}
		})
	}
}
