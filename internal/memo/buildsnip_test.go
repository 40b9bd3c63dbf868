package memo

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"snip/internal/trace"
	"snip/internal/units"
)

// TestBuildSnipMatchesInsert: BuildSnip keys a profile's rows in place;
// it must build the table that inserting each row's Record builds.
// The random profiles log selected fields more than once per row with
// different values (the first occurrence keys), with two sizes, and
// under two categories, and the selections name fields twice or not
// at all.
func TestBuildSnipMatchesInsert(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		d, sel := randProfile(seed)
		got := BuildSnip(d, sel)
		want := NewSnipTable(sel)
		for i := 0; i < d.Len(); i++ {
			want.Insert(d.Record(i))
		}
		if got.Rows() != want.Rows() || got.Conflicts() != want.Conflicts() || got.Buckets() != want.Buckets() {
			t.Fatalf("seed %d: rows/conflicts/buckets %d/%d/%d, by Insert %d/%d/%d", seed,
				got.Rows(), got.Conflicts(), got.Buckets(), want.Rows(), want.Conflicts(), want.Buckets())
		}
		gi, gerr := got.FlatImage()
		wi, werr := want.FlatImage()
		if (gerr == nil) != (werr == nil) || !bytes.Equal(gi, wi) {
			t.Fatalf("seed %d: flat images differ (errors %v, %v)", seed, gerr, werr)
		}
	}
}

// randProfile returns seed's random profile and selection.
func randProfile(seed uint64) (*trace.Dataset, Selection) {
	names := []string{"event.tap.x", "state.mode", "state.combo", "state.noise"}
	selNames := append(names[:len(names):len(names)], "state.absent")
	r := rand.New(rand.NewPCG(seed, 2))
	d := &trace.Dataset{Game: "g"}
	for i := 0; i < 80; i++ {
		var ins []trace.Field
		for k := r.IntN(6); k > 0; k-- {
			cat := trace.InHistory
			if r.IntN(4) == 0 {
				cat = trace.InEvent
			}
			ins = append(ins, fld(names[r.IntN(len(names))], cat, units.Size(1+r.IntN(2)), r.Uint64N(3)))
		}
		outs := []trace.Field{fld("state.out", trace.OutHistory, 4, r.Uint64N(4))}
		if r.IntN(2) == 0 {
			outs = append(outs, fld("temp.t", trace.OutTemp, 8, r.Uint64N(2)))
		}
		d.Append(rec(int64(i), []string{"tap", "vsync"}[r.IntN(2)], r.Uint64N(3), ins, outs))
	}
	sel := Selection{}
	for _, et := range []string{"tap", "vsync", "drag"} {
		for k := r.IntN(4); k > 0; k-- {
			name := selNames[r.IntN(len(selNames))]
			cat := trace.InHistory
			if name == "event.tap.x" {
				cat = trace.InEvent
			}
			sel[et] = append(sel[et], SelectedField{Name: name, Category: cat, Size: 2})
		}
	}
	return d, sel
}

// checkBuildFlat fails unless BuildFlat builds the table the map path it
// replaced builds: BuildSnip, then Flatten.
func checkBuildFlat(t *testing.T, what string, d *trace.Dataset, sel Selection) {
	t.Helper()
	want, werr := Flatten(BuildSnip(d, sel))
	got, gerr := BuildFlat(d, sel)
	if werr != nil || gerr != nil {
		t.Fatalf("%s: map path err = %v, BuildFlat err = %v", what, werr, gerr)
	}
	if !bytes.Equal(got.Image(), want.Image()) || got.Size() != want.Size() || got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: BuildFlat image/size/fingerprint differ from BuildSnip + Flatten", what)
	}
}

// TestBuildFlatMatchesBuildSnip: the direct build gives the map path's
// image byte for byte on random profiles (repeated and unselected
// fields, a type without a selection), the synthetic tables the lookup
// and collision tests use, and empty profiles.
func TestBuildFlatMatchesBuildSnip(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		d, sel := randProfile(seed)
		checkBuildFlat(t, fmt.Sprintf("seed %d", seed), d, sel)
	}
	for _, n := range []int{1, 7, 100, 2048, 4096} {
		checkBuildFlat(t, fmt.Sprintf("synth %d", n), synthDataset(n), SynthSelection())
	}
	checkBuildFlat(t, "synth profile", synthProfile(4096), Selection{"tap": {
		{Name: "event.tap.x", Category: trace.InEvent, Size: 4},
		{Name: "state.mode", Category: trace.InHistory, Size: 1},
	}})
	checkBuildFlat(t, "empty profile", &trace.Dataset{Game: "g"}, SynthSelection())
	checkBuildFlat(t, "empty profile and selection", &trace.Dataset{Game: "g"}, Selection{})
}
