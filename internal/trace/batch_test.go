package trace

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// goldenBatch is a fixed batch exercising every part of the payload:
// several sessions and event types, value counts that grow and shrink
// between events of one type, negative and extreme values, Seq and Time
// that step backwards, a session with no events and one whose log names
// another game.
func goldenBatch() *SessionBatch {
	a := &EventLog{Game: "Colorphun", Events: []LoggedEvent{
		{Type: "touch", Seq: 1, Time: 1000, Values: []int64{3, 7}},
		{Type: "tick", Seq: 2, Time: 16667},
		{Type: "touch", Seq: 3, Time: 33334, Values: []int64{4, 7, -2}},
		{Type: "accel", Seq: 4, Time: 33334, Values: []int64{math.MinInt64, math.MaxInt64}},
		{Type: "touch", Seq: 5, Time: 50001, Values: []int64{-4}},
		{Type: "accel", Seq: 6, Time: 49000, Values: []int64{math.MaxInt64, math.MinInt64, 0}},
		{Type: "tick", Seq: 2, Time: 66668, Values: []int64{1}},
	}}
	b := &EventLog{Game: "Colorphun", Events: []LoggedEvent{
		{Type: "accel", Seq: 10_000_001, Time: 10_000_000_000, Values: []int64{12, -9, 981}},
		{Type: "accel", Seq: 10_000_002, Time: 10_000_016_667, Values: []int64{13, -9, 979}},
		{Type: "swipe", Seq: 10_000_003, Time: 10_000_020_000, Values: []int64{0, 0, 5, 5}},
	}}
	return &SessionBatch{Game: "Colorphun", Sessions: []SessionEvents{
		{Seed: 9, Log: a},
		{Seed: 1<<64 - 1, Log: &EventLog{Game: "Colorphun"}},
		{Seed: 11, Log: b},
		{Seed: 12, Log: &EventLog{Game: "MemoryGame", Events: []LoggedEvent{{Type: "", Seq: -1, Time: -1}}}},
	}}
}

// The golden digests of goldenBatch's payload and wire bytes. They move
// only when the SNIPBTCH2 format (the payload) or the frame around it
// changes, so a format change has to be deliberate: bump the magic and
// update them. The wire digest also covers compress/flate's output.
const (
	goldenBatchPayloadSHA256 = "b600aabd8a6f53fdca84eff0f85214ebd131f07f1e3828bc690e5a4576f53134"
	goldenBatchWireSHA256    = "3378bc5bcc6a0ccc056b66fdf2388a34271382a3cd9ad1d77bd325d08f28b27b"
)

func TestBatchGoldenBytes(t *testing.T) {
	payload, err := appendBatch(nil, goldenBatch())
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := EncodeBatch(&wire, goldenBatch()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		b          []byte
	}{
		{"payload", goldenBatchPayloadSHA256, payload},
		{"wire", goldenBatchWireSHA256, wire.Bytes()},
	} {
		sum := sha256.Sum256(c.b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s sha256 %s, want %s (%d bytes)", c.name, got, c.want, len(c.b))
		}
	}
}

// TestBatchRoundtripExact: decoding returns the batch that was encoded,
// field for field, and a second encode is byte-identical to the first.
func TestBatchRoundtripExact(t *testing.T) {
	for name, in := range map[string]*SessionBatch{
		"golden": goldenBatch(),
		"sample": sampleBatch(),
		"empty":  {Game: "Colorphun"},
	} {
		var wire bytes.Buffer
		if err := EncodeBatch(&wire, in); err != nil {
			t.Fatal(err)
		}
		out, err := DecodeBatch(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%s: roundtrip changed the batch:\n in %+v\nout %+v", name, in, out)
		}
		var again bytes.Buffer
		if err := EncodeBatch(&again, out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.Bytes(), again.Bytes()) {
			t.Fatalf("%s: re-encoding the decoded batch changed its bytes", name)
		}
	}
}

// TestBatchValuesShareBacking: a session's values live in one array, and
// each event's slice is capped so an append cannot overwrite the next
// event's values.
func TestBatchValuesShareBacking(t *testing.T) {
	var wire bytes.Buffer
	if err := EncodeBatch(&wire, goldenBatch()); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatch(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evs := out.Sessions[2].Log.Events
	first, second := evs[0].Values, evs[1].Values
	if cap(first) != len(first) {
		t.Fatalf("values slice has spare capacity: cap %d, len %d", cap(first), len(first))
	}
	end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(first)), len(first)*int(unsafe.Sizeof(first[0])))
	if unsafe.Pointer(unsafe.SliceData(second)) != end {
		t.Fatal("events of one session do not share a backing array")
	}
	_ = append(first, 99)
	if second[0] != 13 {
		t.Fatalf("append to one event's values overwrote the next event's: %v", second)
	}
}

func TestBatchEncodeRejectsNilLog(t *testing.T) {
	err := EncodeBatch(io.Discard, &SessionBatch{Game: "Colorphun", Sessions: []SessionEvents{{Seed: 1}}})
	if err == nil {
		t.Fatal("a session without a log encoded")
	}
}

// framed wraps payload in a valid frame — magic, gzip and a matching
// CRC trailer — so a test reaches the payload parser.
func framed(tb testing.TB, magic string, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	buf.WriteString(magic)
	crc := crc32.NewIEEE()
	zw := gzip.NewWriter(io.MultiWriter(&buf, crc))
	if _, err := zw.Write(payload); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	buf.WriteString(batchTrailerMagic)
	return binary.BigEndian.AppendUint32(buf.Bytes(), crc.Sum32())
}

// payload assembles a hand-built SNIPBTCH2 or SNIPDLT2 payload: uint64s
// and ints become uvarints, strings length-prefixed strings and []byte
// raw bytes.
func payload(parts ...any) []byte {
	var p []byte
	for _, x := range parts {
		switch x := x.(type) {
		case uint64:
			p = binary.AppendUvarint(p, x)
		case int:
			p = binary.AppendUvarint(p, uint64(x))
		case string:
			p = appendString(p, x)
		case []byte:
			p = append(p, x...)
		}
	}
	return p
}

// hostilePayloads are a few bytes each, declaring far more than they
// hold. Each must fail with an error without allocating for what it
// declares.
var hostilePayloads = map[string][]byte{
	"2^40 sessions":        payload("G", uint64(1)<<40, 0),
	"2^40 event types":     payload("G", 1, uint64(1)<<40),
	"2^40 events":          payload("G", 1, 0, 7, "G", uint64(1)<<40),
	"2^40 values":          payload("G", 1, 1, "t", 7, "G", 1, 0, 0, 0, uint64(1)<<40, 0, 0),
	"game past payload":    payload(1000, []byte("abc")),
	"type past payload":    payload("G", 1, 1, 1<<20, []byte("tick")),
	"log game past end":    payload("G", 1, 0, 7, 1<<30, []byte("G")),
	"type id past table":   payload("G", 1, 1, "t", 7, "G", 1, 1, 0, 0, 0),
	"type id, empty table": payload("G", 1, 0, 7, "G", 1, 0, 0, 0, 0),
	"overlong varint":      payload("G", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}),
	"truncated event":      payload("G", 1, 1, "t", 7, "G", 2, 0, 2, 2, 1, 5),
	"trailing bytes":       payload("G", 0, 0, []byte{0}),
}

func TestBatchHostilePayloadsRejected(t *testing.T) {
	for name, p := range hostilePayloads {
		if _, err := parseBatch(p); err == nil {
			t.Errorf("%s: parsed", name)
		}
		// A few small allocations build the error; none is sized by a
		// declared count.
		if allocs := testing.AllocsPerRun(20, func() { parseBatch(p) }); allocs > 24 {
			t.Errorf("%s: %.0f allocs per parse, want <= 24", name, allocs)
		}
		if got := bytesPerRun(func() { parseBatch(p) }); got > 1<<10 {
			t.Errorf("%s: %d bytes allocated per parse, want <= 1 KiB", name, got)
		}
		wire := framed(t, magicBatch, p)
		_, err := DecodeBatch(bytes.NewReader(wire))
		if err == nil || errors.Is(err, ErrBatchTooLarge) {
			t.Errorf("%s: framed decode got %v, want a corrupt-payload error", name, err)
		}
		// The gzip reader's 32 KiB window is most of a framed decode.
		if got := bytesPerRun(func() { DecodeBatch(bytes.NewReader(wire)) }); got > 64<<10 {
			t.Errorf("%s: %d bytes allocated per framed decode, want <= 64 KiB", name, got)
		}
	}
	_, err := DecodeBatch(bytes.NewReader(framed(t, magicBatch, hostilePayloads["trailing bytes"])))
	if !errors.Is(err, ErrBatchChecksum) {
		t.Errorf("trailing bytes: got %v, want ErrBatchChecksum", err)
	}
}

// bytesPerRun is the heap bytes one call of f allocates, averaged over
// several calls after a warm-up call.
func bytesPerRun(f func()) uint64 {
	const runs = 20
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestBatchDecodedCapExact: a payload of exactly the cap decodes; one
// byte less of cap rejects it as oversize.
func TestBatchDecodedCapExact(t *testing.T) {
	p, err := appendBatch(nil, goldenBatch())
	if err != nil {
		t.Fatal(err)
	}
	wire := framed(t, magicBatch, p)
	if _, err := DecodeBatchLimit(bytes.NewReader(wire), int64(len(p))); err != nil {
		t.Fatalf("payload of exactly the cap: %v", err)
	}
	if _, err := DecodeBatchLimit(bytes.NewReader(wire), int64(len(p)-1)); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("payload one byte over the cap: got %v, want ErrBatchTooLarge", err)
	}
}

// TestBatchCodecConcurrent: encoders and decoders running at once share
// the codec's pooled buffers and gzip state without mixing batches.
func TestBatchCodecConcurrent(t *testing.T) {
	batches := []*SessionBatch{goldenBatch(), sampleBatch(), {Game: "Colorphun"}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				in := batches[(g+i)%len(batches)]
				var wire bytes.Buffer
				if err := EncodeBatch(&wire, in); err != nil {
					t.Error(err)
					return
				}
				out, err := DecodeBatch(bytes.NewReader(wire.Bytes()))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(in, out) {
					t.Errorf("goroutine %d: batch changed in a concurrent roundtrip", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
