package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"snip/internal/memo"
)

// The lookup-only sweep: build one synthetic table per row count, serve
// it from both backends and time nothing but Table.Lookup. This is the
// head-to-head the flat image exists for, with no fleet machinery, HTTP
// or emulator in the measurement loop. Resolvers rotate across the whole
// table so successive probes land on different buckets — a single hot
// key would sit in L1 and hide the pointer-chasing cost the map backend
// pays at scale.

// sweepPoint is one row-count measurement in a BENCH_lookup.json file.
type sweepPoint struct {
	Rows     int     `json:"rows"`
	MapNSOp  float64 `json:"map_ns_op"`
	FlatNSOp float64 `json:"flat_ns_op"`
	// Speedup is map/flat ns per op: >1 means the flat backend wins.
	Speedup float64 `json:"speedup"`
	// ImageBytes is the flat image size — exactly what an OTA transfer
	// of this table puts on the wire.
	ImageBytes int64 `json:"image_bytes"`
}

// sweepFile is the BENCH_lookup.json schema (bench "lookup").
type sweepFile struct {
	Bench      string       `json:"bench"` // always "lookup"
	GoMaxProcs int          `json:"gomaxprocs"`
	Ops        int          `json:"ops"`
	Points     []sweepPoint `json:"points"`
}

// defaultSweepSizes is the published 1k–10M ladder.
var defaultSweepSizes = []int{1_000, 10_000, 100_000, 1_000_000, 10_000_000}

func runSweep(spec string, ops int, out string) error {
	sizes, err := parseSweepSizes(spec)
	if err != nil {
		return err
	}
	if ops < 1 {
		return fmt.Errorf("sweep ops %d < 1", ops)
	}
	file := &sweepFile{Bench: "lookup", GoMaxProcs: runtime.GOMAXPROCS(0), Ops: ops}
	for _, n := range sizes {
		p, err := sweepOne(n, ops)
		if err != nil {
			return err
		}
		file.Points = append(file.Points, p)
		fmt.Fprintf(os.Stderr, "rows=%-9d map=%.1fns flat=%.1fns speedup=%.2fx image=%dB\n",
			p.Rows, p.MapNSOp, p.FlatNSOp, p.Speedup, p.ImageBytes)
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d points)\n", out, len(file.Points))
	return nil
}

func sweepOne(n, ops int) (sweepPoint, error) {
	mt := memo.SynthTable(n)
	mt.Freeze()
	ft, err := memo.Flatten(mt)
	if err != nil {
		return sweepPoint{}, fmt.Errorf("rows=%d: %w", n, err)
	}
	res := make([]memo.Resolver, 4096)
	for i := range res {
		res[i] = memo.SynthHit(n, (i*2654435761)%n)
	}
	mapNS, err := timeLookups(mt, res, ops)
	if err != nil {
		return sweepPoint{}, fmt.Errorf("map rows=%d: %w", n, err)
	}
	flatNS, err := timeLookups(ft, res, ops)
	if err != nil {
		return sweepPoint{}, fmt.Errorf("flat rows=%d: %w", n, err)
	}
	return sweepPoint{
		Rows: n, MapNSOp: mapNS, FlatNSOp: flatNS,
		Speedup:    mapNS / flatNS,
		ImageBytes: ft.ImageBytes().Bytes(),
	}, nil
}

// timeLookups runs a short warmup, then times ops hit-path lookups.
// Best-of-three passes: the minimum is the least noise-contaminated
// estimate of the true cost on shared or single-core machines.
func timeLookups(t memo.Table, res []memo.Resolver, ops int) (float64, error) {
	warm := ops / 10
	if warm > 10_000 {
		warm = 10_000
	}
	for i := 0; i < warm; i++ {
		if _, _, _, ok := t.Lookup("tap", res[i%len(res)]); !ok {
			return 0, fmt.Errorf("unexpected miss during warmup")
		}
	}
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			if _, _, _, ok := t.Lookup("tap", res[i%len(res)]); !ok {
				return 0, fmt.Errorf("unexpected miss at op %d", i)
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(ops)
		if pass == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// parseSweepSizes parses "default" or a comma-separated size list with
// optional k/m suffixes ("1k,64k,1m").
func parseSweepSizes(spec string) ([]int, error) {
	if spec == "default" {
		return defaultSweepSizes, nil
	}
	var sizes []int
	for _, part := range strings.Split(spec, ",") {
		s := strings.ToLower(strings.TrimSpace(part))
		mult := 1
		switch {
		case strings.HasSuffix(s, "k"):
			mult, s = 1_000, s[:len(s)-1]
		case strings.HasSuffix(s, "m"):
			mult, s = 1_000_000, s[:len(s)-1]
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > math.MaxInt/mult {
			return nil, fmt.Errorf("bad sweep size %q", part)
		}
		sizes = append(sizes, n*mult)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no sweep sizes")
	}
	return sizes, nil
}

// validateSweep checks a BENCH_lookup.json against the sweep schema.
func validateSweep(b []byte) error {
	var f sweepFile
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	if f.Bench != "lookup" {
		return fmt.Errorf("bench %q, want \"lookup\"", f.Bench)
	}
	if f.GoMaxProcs < 1 || f.Ops < 1 {
		return fmt.Errorf("missing run settings")
	}
	if len(f.Points) == 0 {
		return fmt.Errorf("no sweep points")
	}
	prev := 0
	for i, p := range f.Points {
		switch {
		case p.Rows <= prev:
			return fmt.Errorf("point %d: rows %d not increasing", i, p.Rows)
		case p.MapNSOp <= 0 || p.FlatNSOp <= 0:
			return fmt.Errorf("point %d: non-positive timings", i)
		case p.Speedup <= 0:
			return fmt.Errorf("point %d: missing speedup", i)
		case p.ImageBytes <= 0:
			return fmt.Errorf("point %d: missing image size", i)
		}
		prev = p.Rows
	}
	return nil
}
