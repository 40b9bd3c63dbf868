package trace

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// goldenChain is a fixed chain exercising every part of the payload:
// several deltas (one empty, one naming another game), a selection with
// a field-less type, removed keys, upserts with no outputs, one output
// name under two shapes, shapes met in both orders, Pos steps that go
// up, back and across buckets, extreme versions, Instrs, sizes and
// values, and the empty string as an event type.
func goldenChain() *DeltaChain {
	return &DeltaChain{Game: "Colorphun", Deltas: []TableDelta{
		{
			Game: "Colorphun", FromVersion: 1, ToVersion: 2, FromCRC: 0xDEADBEEF, ToCRC: 0x01234567,
			Selection: []SelectionType{
				{EventType: "tap", Fields: []SelectionField{
					{Name: "event.tap.x", Category: InEvent, Size: 4},
					{Name: "state.mode", Category: InHistory, Size: 1},
				}},
				{EventType: "tick"},
			},
			Removed: []DeltaKey{
				{Type: "tap", EventKey: 7, StateKey: 9},
				{Type: "", EventKey: math.MaxUint64, StateKey: 0},
			},
			Upserts: []DeltaEntry{
				{Key: DeltaKey{Type: "tap", EventKey: 7, StateKey: 11}, Pos: 2, Instr: 100, Outputs: []Field{
					{Name: "state.out", Category: OutHistory, Size: 4, Value: 5},
					{Name: "frame.tile", Category: OutTemp, Size: 64, Value: math.MaxUint64},
				}},
				{Key: DeltaKey{Type: "tap", EventKey: 7, StateKey: 12}, Pos: 3, Instr: -1, Outputs: []Field{
					{Name: "state.out", Category: OutHistory, Size: 4, Value: 0},
					{Name: "frame.tile", Category: OutTemp, Size: 64, Value: 1 << 63},
				}},
				{Key: DeltaKey{Type: "tap", EventKey: 7, StateKey: 13}, Pos: 1, Instr: math.MaxInt64},
				{Key: DeltaKey{Type: "tick", EventKey: 7, StateKey: 14}, Pos: math.MaxUint32, Instr: math.MinInt64, Outputs: []Field{
					{Name: "state.out", Category: OutExtern, Size: 8, Value: 127},
				}},
				{Key: DeltaKey{Type: "tap", EventKey: 8, StateKey: 15}, Outputs: []Field{
					{Name: "frame.tile", Category: OutTemp, Size: 64, Value: 128},
					{Name: "state.out", Category: OutHistory, Size: 4, Value: 5},
				}},
			},
		},
		{Game: "Colorphun", FromVersion: 2, ToVersion: 3, FromCRC: 0x01234567},
		{
			Game: "MemoryGame", FromVersion: -1, ToVersion: math.MaxInt64, FromCRC: math.MaxUint32, ToCRC: 1,
			Removed: []DeltaKey{{Type: "flip", EventKey: 1, StateKey: 2}},
			Upserts: []DeltaEntry{
				{Key: DeltaKey{Type: "flip", EventKey: 1, StateKey: 2}, Pos: 7, Outputs: []Field{
					{Name: "state.out", Category: Category(99), Size: -1, Value: 1},
				}},
			},
		},
	}}
}

// The golden digests of goldenChain's payload and wire bytes. They move
// only when the SNIPDLT2 format (the payload), its gzip level or the
// frame around it changes, so a format change has to be deliberate:
// bump the magic and update them. The wire digest also covers
// compress/flate's output.
const (
	goldenDeltaPayloadSHA256 = "f8d10f8afbf8bf1738c311a08206e8c5369b736156bf4ae413a8d3286b708d5d"
	goldenDeltaWireSHA256    = "36caf93fba81b2a389697e4eff8cf8249ac964d5d2c96889483f70a68b95d02d"
)

func TestDeltaGoldenBytes(t *testing.T) {
	var wire bytes.Buffer
	if err := EncodeDeltaChain(&wire, goldenChain()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		b          []byte
	}{
		{"payload", goldenDeltaPayloadSHA256, appendDeltaChain(nil, goldenChain())},
		{"wire", goldenDeltaWireSHA256, wire.Bytes()},
	} {
		sum := sha256.Sum256(c.b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s sha256 %s, want %s (%d bytes)", c.name, got, c.want, len(c.b))
		}
	}
}

// TestDeltaWireIndependentOfEncodeHistory: a chain's wire bytes do not
// depend on what the process encoded before. Gob numbers its types
// process-wide in first-use order, so a gob-bodied frame changed size
// with the types encoded ahead of it; the golden bytes must hold after
// gob has seen unrelated types, telemetry included.
func TestDeltaWireIndependentOfEncodeHistory(t *testing.T) {
	type unrelated struct {
		A map[string][]int
		B struct{ C float64 }
	}
	type another struct{ D []unrelated }
	for _, v := range []any{unrelated{A: map[string][]int{"x": {1}}}, another{D: make([]unrelated, 2)}} {
		if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := EncodeTelemetry(io.Discard, &TelemetryBatch{Game: "Colorphun", Records: make([]TelemetryRecord, 1)}); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := EncodeDeltaChain(&wire, goldenChain()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(wire.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenDeltaWireSHA256 {
		t.Errorf("wire sha256 %s after gob encodes, want %s", got, goldenDeltaWireSHA256)
	}
}

// TestDeltaRoundtripExact: decoding returns the chain that was encoded,
// field for field, and a second encode is byte-identical to the first.
func TestDeltaRoundtripExact(t *testing.T) {
	for name, in := range map[string]*DeltaChain{
		"golden":      goldenChain(),
		"empty":       {Game: "Colorphun"},
		"empty delta": {Game: "g", Deltas: []TableDelta{{Game: "g"}}},
	} {
		var wire bytes.Buffer
		if err := EncodeDeltaChain(&wire, in); err != nil {
			t.Fatal(err)
		}
		out, err := DecodeDeltaChain(bytes.NewReader(wire.Bytes()), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%s: roundtrip changed the chain:\n in %+v\nout %+v", name, in, out)
		}
		var again bytes.Buffer
		if err := EncodeDeltaChain(&again, out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.Bytes(), again.Bytes()) {
			t.Fatalf("%s: re-encoding the decoded chain changed its bytes", name)
		}
	}
}

// TestDeltaOutputsShareBacking: the upserts' outputs live in one array,
// and each upsert's slice is capped so an append cannot overwrite the
// next upsert's outputs.
func TestDeltaOutputsShareBacking(t *testing.T) {
	var wire bytes.Buffer
	if err := EncodeDeltaChain(&wire, goldenChain()); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeDeltaChain(bytes.NewReader(wire.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	ups := out.Deltas[0].Upserts
	first, second := ups[0].Outputs, ups[1].Outputs
	if cap(first) != len(first) {
		t.Fatalf("outputs slice has spare capacity: cap %d, len %d", cap(first), len(first))
	}
	end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(first)), len(first)*int(unsafe.Sizeof(first[0])))
	if unsafe.Pointer(unsafe.SliceData(second)) != end {
		t.Fatal("upserts do not share a backing array")
	}
	_ = append(first, Field{Name: "x"})
	if second[0].Name != "state.out" {
		t.Fatalf("append to one upsert's outputs overwrote the next upsert's: %v", second)
	}
}

// snipdlt1Frame is c in the SNIPDLT1 format SNIPDLT2 replaced: a gob
// body in the shared frame.
func snipdlt1Frame(tb testing.TB, c *DeltaChain) []byte {
	tb.Helper()
	var buf bytes.Buffer
	err := writeFrame(&buf, "SNIPDLT1", "delta", gzip.DefaultCompression, func(zw io.Writer) error {
		return gob.NewEncoder(zw).Encode(c)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaRejectsSNIPDLT1: a frame in the previous format fails on its
// magic, which sends a device to the full image.
func TestDeltaRejectsSNIPDLT1(t *testing.T) {
	if c, err := DecodeDeltaChain(bytes.NewReader(snipdlt1Frame(t, goldenChain())), 0); err == nil {
		t.Fatalf("a SNIPDLT1 frame decoded: %+v", c)
	}
}

// le32 is a 4-byte little-endian integer and zz a zigzag varint, for
// hand-built payloads.
func le32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
func zz(v int64) []byte    { return binary.AppendVarint(nil, v) }

// Hand-built payload pieces: a string table of one string "G" and an
// empty shape table, and a delta header up to its three counts.
var (
	deltaTables = payload(1, "G", 0)
	deltaHead   = payload(0, zz(1), zz(2), le32(1), le32(2))
)

// hostileDeltaPayloads are a few bytes each, declaring far more than
// they hold or naming ids past their tables. Each must fail with an
// error without allocating for what it declares.
var hostileDeltaPayloads = map[string][]byte{
	"2^40 strings":             payload(uint64(1) << 40),
	"string past payload":      payload(1, 1<<20, []byte("G")),
	"2^40 shapes":              payload(1, "G", uint64(1)<<40),
	"shape name past table":    payload(1, "G", 1, 5, 0, 4, 0, 0),
	"chain game past table":    payload(1, "G", 0, 3, 0),
	"2^40 deltas":              payload(deltaTables, 0, uint64(1)<<40),
	"delta game past table":    payload(deltaTables, 0, 1, 9, zz(1), zz(2), le32(1), le32(2), 0, 0, 0),
	"2^40 selection types":     payload(deltaTables, 0, 1, deltaHead, uint64(1)<<40, 0, 0),
	"2^40 selection fields":    payload(deltaTables, 0, 1, deltaHead, 1, 0, uint64(1)<<40),
	"selection name past end":  payload(deltaTables, 0, 1, deltaHead, 1, 0, 1, 4, 0, 4, 0, 0),
	"2^40 removed keys":        payload(deltaTables, 0, 1, deltaHead, 0, uint64(1)<<40, 0),
	"2^40 upserts":             payload(deltaTables, 0, 1, deltaHead, 0, 0, uint64(1)<<40),
	"keys past end, summed":    payload(deltaTables, 0, 2, deltaHead, 0, 30, 0, deltaHead, 0, 30, 0, make([]byte, 600)),
	"2^40 outputs":             payload(deltaTables, 0, 1, deltaHead, 0, 0, 1, 0, zz(0), uint64(1)<<40, make([]byte, 20)),
	"outputs past end, summed": payload(deltaTables, 0, 1, deltaHead, 0, 0, 2, 0, 0, zz(0), zz(0), 20, 20, make([]byte, 80)),
	"key type past table":      payload(deltaTables, 0, 1, deltaHead, 0, 1, 0, 7, make([]byte, 16)),
	"shape id past table":      payload(deltaTables, 0, 1, deltaHead, 0, 0, 1, 0, zz(0), 1, 3, make([]byte, 18)),
	"position past 32 bits":    payload(deltaTables, 0, 1, deltaHead, 0, 0, 1, 0, zz(0), 0, make([]byte, 16), zz(1<<33)),
	"negative position":        payload(deltaTables, 0, 1, deltaHead, 0, 0, 1, 0, zz(0), 0, make([]byte, 16), zz(-1)),
	"overlong varint":          payload(1, "G", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}),
	"truncated key column":     payload(deltaTables, 0, 1, deltaHead, 0, 1, 0, []byte{0x80, 0x80, 0x80, 0x00}, make([]byte, 13)),
	"truncated CRC":            payload(deltaTables, 0, 1, 0, zz(math.MinInt64), zz(math.MinInt64), []byte{1, 2}),
	"trailing bytes":           payload(deltaTables, 0, 0, []byte{0}),
}

func TestDeltaHostilePayloadsRejected(t *testing.T) {
	for name, p := range hostileDeltaPayloads {
		if _, err := parseDeltaChain(p); err == nil {
			t.Errorf("%s: parsed", name)
		}
		// A few small allocations build the tables and the error; none
		// is sized by a declared count.
		if allocs := testing.AllocsPerRun(20, func() { parseDeltaChain(p) }); allocs > 24 {
			t.Errorf("%s: %.0f allocs per parse, want <= 24", name, allocs)
		}
		if got := bytesPerRun(func() { parseDeltaChain(p) }); got > 1<<10 {
			t.Errorf("%s: %d bytes allocated per parse, want <= 1 KiB", name, got)
		}
		wire := framed(t, magicDelta, p)
		_, err := DecodeDeltaChain(bytes.NewReader(wire), 0)
		if err == nil || errors.Is(err, ErrBatchTooLarge) {
			t.Errorf("%s: framed decode got %v, want a corrupt-payload error", name, err)
		}
		// The gzip reader's 32 KiB window is most of a framed decode.
		if got := bytesPerRun(func() { DecodeDeltaChain(bytes.NewReader(wire), 0) }); got > 64<<10 {
			t.Errorf("%s: %d bytes allocated per framed decode, want <= 64 KiB", name, got)
		}
	}
	_, err := DecodeDeltaChain(bytes.NewReader(framed(t, magicDelta, hostileDeltaPayloads["trailing bytes"])), 0)
	if !errors.Is(err, ErrBatchChecksum) {
		t.Errorf("trailing bytes: got %v, want ErrBatchChecksum", err)
	}
}

// TestDeltaPayloadErrorsNameDelta: the shared payload reader labels its
// faults with the payload it parses.
func TestDeltaPayloadErrorsNameDelta(t *testing.T) {
	_, err := parseDeltaChain(hostileDeltaPayloads["2^40 upserts"])
	if err == nil || !bytes.HasPrefix([]byte(err.Error()), []byte("delta payload at byte ")) {
		t.Errorf("delta fault reads %v", err)
	}
	_, err = parseBatch(hostilePayloads["2^40 events"])
	if err == nil || !bytes.HasPrefix([]byte(err.Error()), []byte("batch payload at byte ")) {
		t.Errorf("batch fault reads %v", err)
	}
}

// TestDeltaDecodedCapExact: a payload of exactly the cap decodes; one
// byte less of cap rejects it as oversize.
func TestDeltaDecodedCapExact(t *testing.T) {
	p := appendDeltaChain(nil, goldenChain())
	wire := framed(t, magicDelta, p)
	if _, err := DecodeDeltaChain(bytes.NewReader(wire), int64(len(p))); err != nil {
		t.Fatalf("payload of exactly the cap: %v", err)
	}
	if _, err := DecodeDeltaChain(bytes.NewReader(wire), int64(len(p)-1)); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("payload one byte over the cap: got %v, want ErrBatchTooLarge", err)
	}
}

// TestDeltaCodecConcurrent: encoders and decoders running at once share
// the codec's pooled encoders, payload buffers and gzip state without
// mixing chains.
func TestDeltaCodecConcurrent(t *testing.T) {
	chains := []*DeltaChain{goldenChain(), {Game: "Colorphun"}, {Game: "g", Deltas: goldenChain().Deltas[2:]}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				in := chains[(g+i)%len(chains)]
				var wire bytes.Buffer
				if err := EncodeDeltaChain(&wire, in); err != nil {
					t.Error(err)
					return
				}
				out, err := DecodeDeltaChain(bytes.NewReader(wire.Bytes()), 0)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(in, out) {
					t.Errorf("goroutine %d: chain changed in a concurrent roundtrip", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
