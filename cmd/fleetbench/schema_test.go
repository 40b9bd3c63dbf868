package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestCommittedBenchFilesDecodeStrictly reads every committed bench
// file back into the type its writer encodes, rejecting unknown fields:
// a field the writer emits but the reading types dropped (the fleet
// report types, the cloud's /v1/overloadz reply) fails here, where
// -validate's lenient decode would silently skip it.
func TestCommittedBenchFilesDecodeStrictly(t *testing.T) {
	fleet := new(benchFile)
	for path, into := range map[string]any{
		"../../BENCH_fleet.json":  fleet,
		"../../BENCH_lookup.json": new(sweepFile),
		"../../BENCH_shards.json": new(shardFile),
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	for i, r := range fleet.Runs {
		if r.FleetReport == nil || r.Health == nil || r.Energy == nil || r.Telemetry == nil || r.Overloadz == nil {
			t.Errorf("BENCH_fleet.json run %d lost a section: %+v", i, r)
		}
	}
}
