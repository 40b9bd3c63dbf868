package main

import (
	"reflect"
	"testing"
)

// TestParseSweepSizes: sizes take k/m suffixes, and a size that is not a
// positive int, or whose suffix multiply would overflow, is rejected.
func TestParseSweepSizes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"default", defaultSweepSizes},
		{"1k,64k,1m", []int{1_000, 64_000, 1_000_000}},
		{" 32K , 7 ", []int{32_000, 7}},
	} {
		got, err := parseSweepSizes(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSweepSizes(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"", "0", "-5k", "k", "1g", "1k,,2k", "10000000000000m", "9223372036854775807k"} {
		if got, err := parseSweepSizes(in); err == nil {
			t.Errorf("parseSweepSizes(%q) = %v, want an error", in, got)
		}
	}
}

// TestParseCounts: device counts are positive ints.
func TestParseCounts(t *testing.T) {
	got, err := parseCounts("1, 8,64")
	if err != nil || !reflect.DeepEqual(got, []int{1, 8, 64}) {
		t.Errorf("parseCounts = %v, %v", got, err)
	}
	for _, in := range []string{"", "0", "-1", "2,x", "1.5"} {
		if got, err := parseCounts(in); err == nil {
			t.Errorf("parseCounts(%q) = %v, want an error", in, got)
		}
	}
}
