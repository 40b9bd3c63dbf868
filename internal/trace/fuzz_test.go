package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// The decoders sit on the cloud ingest path and must reject arbitrary
// bytes with an error — never a panic or an unbounded allocation. The
// fuzz corpora seed from valid encodings plus the classic mutations
// (truncation, bit flips, wrong magic) so the fuzzer starts deep in the
// format instead of rediscovering the header check.

func FuzzDecodeBatch(f *testing.F) {
	for _, b := range []*SessionBatch{goldenBatch(), sampleBatch()} {
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, b); err != nil {
			f.Fatal(err)
		}
		wire := buf.Bytes()
		f.Add(wire)
		f.Add(wire[:len(wire)/2])
		f.Add(wire[:9])
		flipped := bytes.Clone(wire)
		flipped[len(flipped)/2] ^= 0x01
		f.Add(flipped)
		f.Add(append([]byte("SNIPBTCH1"), wire[9:]...))
	}
	// Valid frames around hostile payloads start the fuzzer past the
	// checksum, in the parser.
	for _, p := range hostilePayloads {
		f.Add(frameBatch(f, p))
	}
	f.Add([]byte("SNIPBTCH2"))
	f.Add([]byte("SNIPEVTS1junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A tight decoded cap keeps fuzz iterations fast and exercises
		// the bomb guard; the decoder must error or succeed, not panic.
		b, err := DecodeBatchLimit(bytes.NewReader(data), 1<<20)
		if err != nil {
			return
		}
		if b == nil {
			t.Fatal("nil batch with nil error")
		}
		// Whatever decodes is a batch the encoder can carry unchanged.
		var wire bytes.Buffer
		if err := EncodeBatch(&wire, b); err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		again, err := DecodeBatch(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("re-encode changed the batch:\n%+v\n%+v", b, again)
		}
	})
}

func FuzzDecodeDelta(f *testing.F) {
	var buf bytes.Buffer
	chain := &DeltaChain{Game: "Colorphun", Deltas: []TableDelta{{
		Game: "Colorphun", FromVersion: 1, ToVersion: 2, FromCRC: 0xDEAD, ToCRC: 0xBEEF,
		Selection: []SelectionType{{EventType: "tap", Fields: []SelectionField{{Name: "event.tap.x", Category: InEvent, Size: 4}}}},
		Removed:   []DeltaKey{{Type: "tap", EventKey: 7, StateKey: 9}},
		Upserts: []DeltaEntry{{
			Key: DeltaKey{Type: "tap", EventKey: 7, StateKey: 11}, Pos: 2, Instr: 100,
			Outputs: []Field{{Name: "state.out", Category: OutHistory, Size: 4, Value: 5}},
		}},
	}}}
	if err := EncodeDeltaChain(&buf, chain); err != nil {
		f.Fatal(err)
	}
	wire := buf.Bytes()
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	f.Add(wire[:8])
	flipped := bytes.Clone(wire)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte("SNIPDLT1"))
	f.Add([]byte("SNIPBTCH2junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeDeltaChain(bytes.NewReader(data), 1<<20)
		if err == nil && c == nil {
			t.Fatal("nil chain with nil error")
		}
	})
}

func FuzzDecodeEventsOnly(f *testing.F) {
	var buf bytes.Buffer
	log := &EventLog{Game: "Colorphun", Events: []LoggedEvent{
		{Type: "touch", Seq: 1, Time: 1000, Values: []int64{3, 7}},
		{Type: "tick", Seq: 2, Time: 2000, Values: []int64{1}},
	}}
	if err := EncodeEventsOnly(&buf, log); err != nil {
		f.Fatal(err)
	}
	wire := buf.Bytes()
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	flipped := bytes.Clone(wire)
	flipped[len(flipped)-1] ^= 0x80
	f.Add(flipped)
	f.Add([]byte("SNIPEVTS1"))
	f.Add([]byte("SNIPPROF1junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeEventsOnly(bytes.NewReader(data))
		if err == nil && l == nil {
			t.Fatal("nil log with nil error")
		}
	})
}
