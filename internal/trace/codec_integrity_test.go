package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

func sampleBatch() *SessionBatch {
	log := &EventLog{Game: "Colorphun", Events: []LoggedEvent{
		{Type: "touch", Seq: 1, Time: 1000, Values: []int64{3, 7}},
		{Type: "touch", Seq: 2, Time: 2000, Values: []int64{4, 7}},
		{Type: "tick", Seq: 3, Time: 3000, Values: []int64{1}},
	}}
	return &SessionBatch{Game: "Colorphun", Sessions: []SessionEvents{
		{Seed: 9, Log: log}, {Seed: 10, Log: log},
	}}
}

func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, sampleBatch()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchTrailerPresent pins the wire layout: magic, gzip payload, then
// the 8-byte "SNPC"+CRC32 trailer whose checksum covers the gzip bytes.
func TestBatchTrailerPresent(t *testing.T) {
	wire := encodeSample(t)
	if string(wire[:9]) != "SNIPBTCH3" {
		t.Fatalf("bad magic %q", wire[:9])
	}
	n := len(wire)
	if string(wire[n-batchTrailerLen:n-crc32.Size]) != batchTrailerMagic {
		t.Fatalf("missing trailer marker in %q", wire[n-batchTrailerLen:])
	}
	payload := wire[9 : n-batchTrailerLen]
	want := binary.BigEndian.Uint32(wire[n-crc32.Size:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		t.Fatalf("trailer crc %08x does not cover payload (crc %08x)", want, got)
	}
}

// TestBatchBitflipRejected: any single flipped bit in the gzip payload
// must surface as ErrBatchChecksum, not a gzip or payload parse error.
func TestBatchBitflipRejected(t *testing.T) {
	wire := encodeSample(t)
	for _, pos := range []int{9, 9 + (len(wire)-9-batchTrailerLen)/2, len(wire) - batchTrailerLen - 1} {
		mangled := bytes.Clone(wire)
		mangled[pos] ^= 0x40
		_, err := DecodeBatch(bytes.NewReader(mangled))
		if !errors.Is(err, ErrBatchChecksum) {
			t.Fatalf("flip at %d: got %v, want ErrBatchChecksum", pos, err)
		}
	}
}

// TestBatchTruncationRejected: truncating the body must always error;
// cuts that preserve an (accidental) trailer shape still fail the CRC.
func TestBatchTruncationRejected(t *testing.T) {
	wire := encodeSample(t)
	for _, n := range []int{0, 4, 9, 12, len(wire) / 2, len(wire) - 1} {
		if _, err := DecodeBatch(bytes.NewReader(wire[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestBatchLegacyTrailerlessRejected: a payload framed without the
// trailer — magic + gzip(payload) — is rejected as corrupt.
func TestBatchLegacyTrailerlessRejected(t *testing.T) {
	payload, err := appendBatch(nil, sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := io.WriteString(bw, magicBatch); err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(bw)
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = DecodeBatch(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrBatchChecksum) {
		t.Fatalf("trailerless payload: got %v, want ErrBatchChecksum", err)
	}
}

// TestBatchDecodedCap: a valid-checksum gzip bomb must die at the decoded
// cap with ErrBatchTooLarge, never by allocating the decompressed bytes.
func TestBatchDecodedCap(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := io.WriteString(bw, magicBatch); err != nil {
		t.Fatal(err)
	}
	crc := crc32.NewIEEE()
	zw := gzip.NewWriter(io.MultiWriter(bw, crc))
	// Plain zeros: the decoder drains the decompressed stream through
	// the capped reader before parsing, so nothing fails before the cap.
	const bombSize = 8 << 20
	zeros := make([]byte, 1<<16)
	for written := 0; written < bombSize; written += len(zeros) {
		if _, err := zw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(bw, batchTrailerMagic); err != nil {
		t.Fatal(err)
	}
	var sum [crc32.Size]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	_, err := DecodeBatchLimit(bytes.NewReader(buf.Bytes()), 1<<20)
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("bomb got %v, want ErrBatchTooLarge", err)
	}
	// Under the default (1 GiB) cap the same payload fails as a malformed
	// payload, not as oversize: the cap is the only thing distinguishing
	// the two.
	if _, err := DecodeBatch(bytes.NewReader(buf.Bytes())); errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("8 MiB decoded payload tripped the 1 GiB default cap: %v", err)
	}
}

// TestBatchRoundtripWithTrailer: the trailer must not perturb a clean
// roundtrip.
func TestBatchRoundtripWithTrailer(t *testing.T) {
	in := sampleBatch()
	out, err := DecodeBatch(bytes.NewReader(encodeSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Game != in.Game || len(out.Sessions) != len(in.Sessions) {
		t.Fatalf("roundtrip mangled batch: %+v", out)
	}
}
