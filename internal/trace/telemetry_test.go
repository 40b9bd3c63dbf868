package trace

import (
	"bytes"
	"errors"
	"testing"
)

func sampleTelemetryBatch() *TelemetryBatch {
	return &TelemetryBatch{
		Game: "Colorphun",
		Records: []TelemetryRecord{
			{
				Device: 3, SimTimeUS: 10_000_000, Generation: 2,
				Sessions: 1, Events: 400, Lookups: 380, Hits: 310,
				ShadowChecks: 40, Mispredicts: 1,
				SavedInstr: 9300,
				Retries:    1, QueueDepth: 2, QueueCap: 8,
				TelemetryPending: 1, TelemetryCap: 8,
				EnergyUJ: 6400.5, SensorsUJ: 144.0, MemoryUJ: 310.25,
				CPUUJ: 5686.25, IPsUJ: 260.0,
				LookupOverheadUJ: 610.5, ShadowVerifyUJ: 420.75,
				SavedUJ: 2410.0, WastedUJ: 88.5,
				ElapsedUS: 10_000_000, DeviceTotalUJ: 6400.5,
			},
			{
				Device: 3, SimTimeUS: 20_000_000, Generation: 3,
				Sessions: 1, Events: 400, Lookups: 390, Hits: 355,
				SavedInstr: 10650, QueueCap: 8, TelemetryCap: 8,
				EnergyUJ: 5900.0, SensorsUJ: 144.0, MemoryUJ: 290.0,
				CPUUJ: 5206.0, IPsUJ: 260.0,
				LookupOverheadUJ: 580.0, SavedUJ: 2760.0,
				ElapsedUS: 10_000_000, DeviceTotalUJ: 12300.5,
			},
		},
	}
}

func TestTelemetryRoundtrip(t *testing.T) {
	in := sampleTelemetryBatch()
	var buf bytes.Buffer
	if err := EncodeTelemetry(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:len(magicTelemetry)]; string(got) != magicTelemetry {
		t.Fatalf("wire starts with %q, want %q", got, magicTelemetry)
	}
	out, err := DecodeTelemetry(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Game != in.Game || len(out.Records) != len(in.Records) {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
	for i := range in.Records {
		if out.Records[i] != in.Records[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, out.Records[i], in.Records[i])
		}
	}
}

// TestTelemetryDecodesFramesWithP99 pins wire compatibility with
// devices that still stamp the record's retired wall-clock
// P99LookupNS: gob skips a field the receiver's type lacks, so such a
// frame decodes with every other field intact.
func TestTelemetryDecodesFramesWithP99(t *testing.T) {
	type olderRecord struct {
		Device      int
		Generation  int64
		Events      int64
		SavedInstr  int64
		P99LookupNS int64
		EnergyUJ    float64
	}
	older := struct {
		Game    string
		Records []olderRecord
	}{"Colorphun", []olderRecord{{Device: 3, Generation: 2, Events: 400, SavedInstr: 9300, P99LookupNS: 850, EnergyUJ: 6400.5}}}
	var buf bytes.Buffer
	if err := encodeGobFrame(&buf, magicTelemetry, "telemetry", &older); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeTelemetry(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := TelemetryRecord{Device: 3, Generation: 2, Events: 400, SavedInstr: 9300, EnergyUJ: 6400.5}
	if out.Game != older.Game || len(out.Records) != 1 || out.Records[0] != want {
		t.Fatalf("older frame decoded as %+v, want game %q and %+v", out, older.Game, want)
	}
}

func TestTelemetryBitflipRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeTelemetry(&buf, sampleTelemetryBatch()); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	flipped := bytes.Clone(wire)
	flipped[len(flipped)/2] ^= 0x01
	if _, err := DecodeTelemetry(bytes.NewReader(flipped)); !errors.Is(err, ErrBatchChecksum) {
		t.Fatalf("bitflip err = %v, want ErrBatchChecksum", err)
	}
}

func TestTelemetryTrailerlessRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeTelemetry(&buf, sampleTelemetryBatch()); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	if _, err := DecodeTelemetry(bytes.NewReader(wire[:len(wire)-batchTrailerLen])); !errors.Is(err, ErrBatchChecksum) {
		t.Fatalf("trailerless err = %v, want ErrBatchChecksum", err)
	}
}

func TestTelemetryWrongMagicRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, &SessionBatch{Game: "Colorphun"}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTelemetry(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("session-batch wire decoded as telemetry")
	}
}

func TestTelemetryDecodedCap(t *testing.T) {
	big := &TelemetryBatch{Game: "Colorphun"}
	for i := 0; i < 4096; i++ {
		big.Records = append(big.Records, TelemetryRecord{Device: i, SimTimeUS: int64(i)})
	}
	var buf bytes.Buffer
	if err := EncodeTelemetry(&buf, big); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTelemetryLimit(bytes.NewReader(buf.Bytes()), 512); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("cap err = %v, want ErrBatchTooLarge", err)
	}
	if _, err := DecodeTelemetryLimit(bytes.NewReader(buf.Bytes()), 0); err != nil {
		t.Fatalf("default cap should admit the batch: %v", err)
	}
}

func FuzzDecodeTelemetry(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeTelemetry(&buf, sampleTelemetryBatch()); err != nil {
		f.Fatal(err)
	}
	wire := buf.Bytes()
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	f.Add(wire[:len(magicTelemetry)])
	flipped := bytes.Clone(wire)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte("SNIPTEL1"))
	f.Add([]byte("SNIPBTCH3junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeTelemetryLimit(bytes.NewReader(data), 1<<20)
		if err == nil && b == nil {
			t.Fatal("nil batch with nil error")
		}
	})
}
