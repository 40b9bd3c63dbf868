package cloud

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"snip/internal/games"
	"snip/internal/memo"
)

// learnImageGolden pins every game's learn-shaped images and delta
// frame (learnDeltaRounds): the arena CRC of generation 1 and of
// generation 2, and the SHA-256 of the one-link delta frame between
// them. The values were recorded from the map-backed build (BuildSnip,
// then FlatImage) and the map-rebuilding apply; any table build, diff,
// apply or codec change must reproduce them exactly.
var learnImageGolden = map[string]struct {
	gen1, gen2 uint32
	frame      string
}{
	"Colorphun":    {0x4904ea82, 0xac77655f, "cbd3d05a020f6009f00e52a618659095194460c674bcd7b946c4fd465052ae6f"},
	"MemoryGame":   {0x72b972e9, 0xa3c2ffbf, "62d6108a2db8e0bf5a27673e96dfdc4fcc426134b30612420441871f60ab0e4f"},
	"CandyCrush":   {0x58cf18a5, 0x2f1367cd, "a116070190a966ca75045315f6482f352d02736bce7e4019c483e71143b1ce91"},
	"Greenwall":    {0xb70a9aaa, 0xc108f41a, "efd498baa9a7e3b619864ebd2113a714d5693d29ea9ac9c905bb83a02729c1fb"},
	"ABEvolution":  {0xee97204e, 0xee209407, "7f3f755eed901647eee656d9aebf7c8c201a185b882673a313ae24fd5d7a1771"},
	"ChaseWhisply": {0x5aad7de6, 0x8f5cdff1, "c87fae278de23ad17c961baaee70e82184a6452d75af7e1288d9064cdb1ad6d7"},
	"RaceKings":    {0x7c51cd0c, 0xbc211ae9, "f58be8ada51736eaca6330d325166ff045228f8c2dec5786c7b1dbfc057ad0fd"},
}

func TestLearnImageGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("records 8 sessions per game")
	}
	for _, game := range games.Names() {
		p, base := learnDeltaRounds(t, game)
		frame, err := p.DeltaChainFrom(1)
		if err != nil || frame == nil {
			t.Fatalf("%s: no delta frame from generation 1 (%v)", game, err)
		}
		sum := sha256.Sum256(frame)
		gen2 := p.Latest().Table.(*memo.FlatTable).ArenaCRC()
		want, ok := learnImageGolden[game]
		if !ok {
			t.Errorf("%s: no golden values; measured {%#08x, %#08x, %q}", game, base.ArenaCRC(), gen2, hex.EncodeToString(sum[:]))
			continue
		}
		if base.ArenaCRC() != want.gen1 || gen2 != want.gen2 || hex.EncodeToString(sum[:]) != want.frame {
			t.Errorf("%s: generation 1 CRC %08x, generation 2 CRC %08x, frame SHA-256 %x; want %08x, %08x, %s",
				game, base.ArenaCRC(), gen2, sum, want.gen1, want.gen2, want.frame)
		}
	}
}

// TestBuildFlatMatchesMapBuild: on every game's learn-shaped profile
// under its PFI selection, the direct build gives the image, size and
// fingerprint of the map path it replaced (BuildSnip, then Flatten).
func TestBuildFlatMatchesMapBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("records 8 sessions per game")
	}
	for _, game := range games.Names() {
		p, _ := learnDeltaRounds(t, game)
		sel := p.Latest().Selection
		want, err := memo.Flatten(memo.BuildSnip(p.profile, sel))
		if err != nil {
			t.Fatal(err)
		}
		got, err := memo.BuildFlat(p.profile, sel)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Image(), want.Image()) || got.Size() != want.Size() || got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: BuildFlat differs from BuildSnip + Flatten", game)
		}
	}
}

// BenchmarkTableBuild times each game's learn-shaped table build from
// its profile and selection, direct (BuildFlat) and through the map
// table (BuildSnip, then Flatten).
func BenchmarkTableBuild(b *testing.B) {
	for _, game := range games.Names() {
		p, _ := learnDeltaRounds(b, game)
		sel := p.Latest().Selection
		b.Run(game+"/direct", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := memo.BuildFlat(p.profile, sel); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(game+"/map", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := memo.Flatten(memo.BuildSnip(p.profile, sel)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
