package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"snip/internal/games"
	"snip/internal/units"
)

// TestStreamDigestsPinned pins every game's generated stream, on both
// presets, to the digest of each reading's sensor, time, values and
// RawSize measured when every reading held a slice of its own: the
// builder's values arena changes no reading.
func TestStreamDigestsPinned(t *testing.T) {
	want := map[string]uint64{
		"Colorphun/default": 8019272312884650206, "MemoryGame/default": 6875600302298044393,
		"CandyCrush/default": 7221218780406852621, "Greenwall/default": 1670818917542936834,
		"ABEvolution/default": 8942369662108319253, "ChaseWhisply/default": 7765703412407603650,
		"RaceKings/default":  8415600400065956294,
		"Colorphun/eventcam": 10151597093534684620, "MemoryGame/eventcam": 14861504533194915547,
		"CandyCrush/eventcam": 9989871861596704495, "Greenwall/eventcam": 16228972132980668112,
		"ABEvolution/eventcam": 17483133490487976679, "ChaseWhisply/eventcam": 5949015243541798240,
		"RaceKings/eventcam": 641152851351184352,
	}
	for _, preset := range Presets() {
		for _, name := range games.Names() {
			gen, err := ForWorkload(name, preset)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var b [8]byte
			put := func(v int64) {
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				h.Write(b[:])
			}
			for seed := uint64(3); seed < 6; seed++ {
				s := gen.Generate(seed, 10*units.Second)
				for _, r := range s.All() {
					put(int64(r.Sensor))
					put(int64(r.Time))
					put(int64(len(r.Values)))
					for _, v := range r.Values {
						put(v)
					}
					put(int64(r.RawSize()))
				}
			}
			key := name + "/" + preset
			if w, ok := want[key]; !ok || h.Sum64() != w {
				t.Errorf("%s: stream digest %d, want %d", key, h.Sum64(), w)
			}
		}
	}
}
