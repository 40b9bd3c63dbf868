package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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

// TestValidateUnknownBenchKind: a bench kind -validate does not know is
// rejected with every kind it does know named in the message.
func TestValidateUnknownBenchKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_bogus.json")
	if err := os.WriteFile(path, []byte(`{"bench": "bogus", "runs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := validateFile(path)
	if err == nil {
		t.Fatal("unknown bench kind accepted")
	}
	for _, kind := range []string{`"fleet"`, `"lookup"`, `"shards"`} {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not name %s", err, kind)
		}
	}
}
