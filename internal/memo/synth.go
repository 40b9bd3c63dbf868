package memo

import (
	"snip/internal/trace"
)

// Synthetic table population for lookup benchmarks: the flat-vs-map
// microbenchmarks in this package and fleetbench's -lookup-sweep both
// need tables of arbitrary row counts with a realistic shape — a few
// In.Event fields folded into the bucket index, a few state fields
// compared per candidate, and small multi-entry buckets. Everything
// here is deterministic in (n, i).

// SynthSelection returns the fixed selection the synthetic tables are
// keyed on: two In.Event fields and three state fields (5 bytes of
// state width per probe).
func SynthSelection() Selection {
	sel := Selection{"tap": {
		{Name: "event.tap.x", Category: trace.InEvent, Size: 4},
		{Name: "event.tap.y", Category: trace.InEvent, Size: 4},
		{Name: "state.mode", Category: trace.InHistory, Size: 1},
		{Name: "state.level", Category: trace.InHistory, Size: 2},
		{Name: "state.combo", Category: trace.InHistory, Size: 2},
	}}
	sel.Canonicalize()
	return sel
}

// synthRow returns the field values of synthetic row i in an n-row
// table. The (x, y) grid is sized so buckets average ~4 entries
// regardless of n, and combo disambiguates rows that share a bucket, so
// all n rows are distinct.
func synthRow(n, i int) (x, y, mode, level, combo uint64) {
	ew := 1
	for ew*ew*4 < n {
		ew++
	}
	x = uint64(i % ew)
	y = uint64((i / ew) % ew)
	combo = uint64(i / (ew * ew))
	return x, y, uint64(i % 3), uint64(i % 7), combo
}

// SynthTable builds a deterministic n-row table under SynthSelection.
func SynthTable(n int) *SnipTable { return BuildSnip(synthDataset(n), SynthSelection()) }

// synthDataset is SynthTable's n-row profile.
func synthDataset(n int) *trace.Dataset {
	d := &trace.Dataset{Game: "synth"}
	for i := 0; i < n; i++ {
		x, y, mode, level, combo := synthRow(n, i)
		d.BeginRow(int64(i), "tap", 0, 0, 0)
		d.LogInput("", "event.tap.x", trace.InEvent, 4, x)
		d.LogInput("", "event.tap.y", trace.InEvent, 4, y)
		d.LogInput("", "state.mode", trace.InHistory, 1, mode)
		d.LogInput("", "state.level", trace.InHistory, 2, level)
		d.LogInput("", "state.combo", trace.InHistory, 2, combo)
		d.LogOutput("", "state.out", trace.OutHistory, 4, x+y+combo)
		d.LogOutput("", "frame.tile", trace.OutTemp, 8, x^y)
		d.EndRow(100, true)
	}
	return d
}

// SynthHit returns a resolver matching row i of an n-row SynthTable —
// a guaranteed hit.
func SynthHit(n, i int) Resolver {
	x, y, mode, level, combo := synthRow(n, i)
	return synthResolver(x, y, mode, level, combo)
}

// SynthMiss returns a resolver that lands in row i's (populated) bucket
// but matches no entry — the in-bucket miss that scans the whole
// candidate chain.
func SynthMiss(n, i int) Resolver {
	x, y, mode, level, _ := synthRow(n, i)
	return synthResolver(x, y, mode, level, ^uint64(0))
}

func synthResolver(x, y, mode, level, combo uint64) Resolver {
	return func(name string) (uint64, bool) {
		switch name {
		case "event.tap.x":
			return x, true
		case "event.tap.y":
			return y, true
		case "state.mode":
			return mode, true
		case "state.level":
			return level, true
		case "state.combo":
			return combo, true
		}
		return 0, false
	}
}
