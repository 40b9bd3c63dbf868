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
	"strings"
	"sync"
	"testing"
	"unsafe"

	"snip/internal/units"
)

// appendBatch appends b's SNIPBTCH3 payload to dst.
func appendBatch(dst []byte, b *SessionBatch) ([]byte, error) {
	e := batchEncoders.Get().(*batchEncoder)
	defer batchEncoders.Put(e)
	if err := e.encode(b); err != nil {
		return nil, err
	}
	for _, s := range e.sections {
		dst = append(dst, s...)
	}
	return dst, nil
}

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
// only when the SNIPBTCH3 format (the payload) or the frame around it
// changes, so a format change has to be deliberate: bump the magic and
// update them. The wire digest also covers compress/flate's output.
const (
	goldenBatchPayloadSHA256 = "0d0993ad4ac1f78ae3d40300500af5172dea20a7f96f3c8a2123091ee2634b9d"
	goldenBatchWireSHA256    = "7388d8ac7990b70ee69e1a0bf20d64cbe160dbc6e4c5dc1ecb034bfe772e8135"
)

// The digests goldenBatch had in SNIPBTCH2, the row-major format
// SNIPBTCH3 replaced; they pin snipbtch2Frame to that format.
const (
	goldenBatchV2PayloadSHA256 = "b600aabd8a6f53fdca84eff0f85214ebd131f07f1e3828bc690e5a4576f53134"
	goldenBatchV2WireSHA256    = "3378bc5bcc6a0ccc056b66fdf2388a34271382a3cd9ad1d77bd325d08f28b27b"
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

// snipbtch2Frame is b in the SNIPBTCH2 format SNIPBTCH3 replaced, and
// its payload: per event, the type id, Seq and Time deltas from the
// previous event of the session, the value count, and value deltas from
// the previous event of the same type, at the default gzip level.
func snipbtch2Frame(tb testing.TB, b *SessionBatch) (wire, p []byte) {
	tb.Helper()
	ids := make(map[string]uint64)
	var types []string
	for _, s := range b.Sessions {
		for _, e := range s.Log.Events {
			if _, ok := ids[e.Type]; !ok {
				ids[e.Type] = uint64(len(types))
				types = append(types, e.Type)
			}
		}
	}
	p = payload(b.Game, len(b.Sessions), len(types))
	for _, t := range types {
		p = appendString(p, t)
	}
	prev := make([][]int64, len(types))
	for _, s := range b.Sessions {
		clear(prev)
		p = payload(p, s.Seed, s.Log.Game, len(s.Log.Events))
		var seq int64
		var t units.Time
		for _, e := range s.Log.Events {
			id := ids[e.Type]
			p = payload(p, id, zz(e.Seq-seq), zz(int64(e.Time-t)), len(e.Values))
			seq, t = e.Seq, e.Time
			for j, v := range e.Values {
				if j < len(prev[id]) {
					v -= prev[id][j]
				}
				p = payload(p, zz(v))
			}
			prev[id] = e.Values
		}
	}
	var buf bytes.Buffer
	err := writeFrame(&buf, "SNIPBTCH2", "batch", gzip.DefaultCompression, func(zw io.Writer) error {
		_, err := zw.Write(p)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), p
}

// TestBatchRejectsSNIPBTCH2: a frame in the previous format fails on its
// magic, and its payload under the SNIPBTCH3 magic fails to parse.
func TestBatchRejectsSNIPBTCH2(t *testing.T) {
	wire, p := snipbtch2Frame(t, goldenBatch())
	for _, c := range []struct {
		name, want string
		b          []byte
	}{
		{"payload", goldenBatchV2PayloadSHA256, p},
		{"wire", goldenBatchV2WireSHA256, wire},
	} {
		if sum := sha256.Sum256(c.b); hex.EncodeToString(sum[:]) != c.want {
			t.Fatalf("the SNIPBTCH2 %s is not the format's: sha256 %x", c.name, sum)
		}
	}
	if b, err := DecodeBatch(bytes.NewReader(wire)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("a SNIPBTCH2 frame: got %+v, %v; want a bad-magic error", b, err)
	}
	if b, err := DecodeBatch(bytes.NewReader(framed(t, magicBatch, p))); err == nil {
		t.Fatalf("a SNIPBTCH2 payload decoded as SNIPBTCH3: %+v", b)
	}
}

// TestBatchPayloadLayout: a small batch's payload is the header, the
// directory and the streams exactly as the format comment lays them out.
func TestBatchPayloadLayout(t *testing.T) {
	b := &SessionBatch{Game: "G", Sessions: []SessionEvents{{Seed: 5, Log: &EventLog{Game: "H", Events: []LoggedEvent{
		{Type: "touch", Seq: 1, Time: 100, Values: []int64{3, 7}},
		{Type: "tick", Seq: 2, Time: 150},
		{Type: "touch", Seq: 3, Time: 300, Values: []int64{4}},
	}}}}}
	streams := [][]byte{
		payload(0, 1, 0),              // type ids
		payload(zz(1), zz(1), zz(1)),  // Seq deltas
		payload(zz(2), zz(0), zz(-1)), // value-count deltas, per type
		payload(zz(100), zz(200)),     // touch: Time deltas
		payload(zz(3), zz(1)),         // touch: value 0
		payload(zz(7)),                // touch: value 1
		payload(zz(150)),              // tick: Time deltas
	}
	want := payload("G", 1, 2, "touch", 2, "tick", 0, 5, "H", 3)
	for _, st := range streams {
		want = payload(want, len(st))
	}
	for _, st := range streams {
		want = payload(want, st)
	}
	got, err := appendBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload\n got % x\nwant % x", got, want)
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

// payload assembles a hand-built SNIPBTCH3 or SNIPDLT2 payload: uint64s
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
// hold or naming ids and counts past their tables. Each must fail with
// an error without allocating for what it declares.
var hostilePayloads = map[string][]byte{
	"2^40 sessions":            payload("G", uint64(1)<<40, 0),
	"2^40 event types":         payload("G", 1, uint64(1)<<40),
	"2^40 value columns":       payload("G", 1, 1, "t", uint64(1)<<40),
	"columns past end, summed": payload("G", 0, 2, "t", 8, "u", 8, make([]byte, 10)),
	"2^40 events":              payload("G", 1, 0, 7, "G", uint64(1)<<40),
	"events past end, summed":  payload("G", 2, 0, 7, "G", 6, 7, "G", 6, make([]byte, 30)),
	"2^40 stream bytes":        payload("G", 0, 0, uint64(1)<<40, 0, 0),
	"stream past payload end":  payload("G", 0, 0, 0, 0, 5, []byte{1, 2}),
	"streams past end, summed": payload("G", 0, 0, 2, 2, 0, []byte{1, 2, 3}),
	"2^40 values":              payload("G", 1, 1, "t", 1, 7, "G", 1, 1, 1, 6, 1, 1, 0, 0, zz(1<<40), 0, 0),
	"negative value count":     payload("G", 1, 1, "t", 1, 7, "G", 1, 1, 1, 1, 1, 0, 0, 0, zz(-1), 0),
	"game past payload":        payload(1000, []byte("abc")),
	"type past payload":        payload("G", 1, 1, 1<<20, []byte("tick")),
	"log game past end":        payload("G", 1, 0, 7, 1<<30, []byte("G")),
	"type id past table":       payload("G", 1, 1, "t", 0, 7, "G", 1, 1, 1, 1, 1, 1, 0, 0, 0),
	"type id, empty table":     payload("G", 1, 0, 7, "G", 1, 1, 1, 1, 0, 0, 0),
	"overlong varint":          payload("G", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}),
	"truncated event":          payload("G", 1, 1, "t", 1, 7, "G", 2, 2, 2, 2, 1, 2, 0, 0, 0, 0, zz(1), zz(0), 5, zz(-1), 1),
	"stream not consumed":      payload("G", 1, 1, "t", 0, 7, "G", 1, 1, 1, 2, 1, 0, 0, 0, 0, 0),
	"trailing bytes":           payload("G", 0, 0, 0, 0, 0, []byte{0}),
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
	for _, name := range []string{"trailing bytes", "stream not consumed"} {
		_, err := DecodeBatch(bytes.NewReader(framed(t, magicBatch, hostilePayloads[name])))
		if !errors.Is(err, ErrBatchChecksum) {
			t.Errorf("%s: got %v, want ErrBatchChecksum", name, err)
		}
	}
}

// bytesPerRun is the heap bytes one call of f allocates: the least of
// several averages, each over several calls after a warm-up call. A
// sync.Pool miss (the race detector drops pooled items at random) can
// only add bytes to an average, so the least is the decoder's own.
func bytesPerRun(f func()) uint64 {
	const runs, rounds = 20, 5
	least := uint64(math.MaxUint64)
	for range rounds {
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
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
