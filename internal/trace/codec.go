package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"snip/internal/units"
)

// The wire formats for shipping profiles to the cloud profiler: a
// stream-separated batch payload for the fleet's upload (batch.go) and
// JSON for debugging/inspection. The gob streams Encode and
// EncodeEventsOnly write are never sent: they are the §VII-C size model
// behind TransferSize and EventsOnlyTransferSize. The paper notes that
// SNIP records "only the event inputs" on-device to keep the client
// overhead negligible; the events-only form models that reduced upload.

// magic distinguishes full profiles, events-only profiles, gzip'd
// session batches and telemetry batches on the wire.
const (
	magicFull       = "SNIPPROF1"
	magicEventsOnly = "SNIPEVTS1"
	magicBatch      = "SNIPBTCH3"
	magicTelemetry  = "SNIPTEL1"
)

// Encode writes the full dataset (inputs and outputs) as a gob stream.
func Encode(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, magicFull); err != nil {
		return err
	}
	// Gob names a struct type on the wire: the local type keeps the
	// name, so the stream and TransferSize stay what they were when a
	// Dataset held a record list.
	type Dataset struct {
		Game    string
		Records []*Record
	}
	g := Dataset{Game: d.Game, Records: make([]*Record, d.Len())}
	for i := range g.Records {
		g.Records[i] = d.Record(i)
	}
	if err := gob.NewEncoder(bw).Encode(&g); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return bw.Flush()
}

// EventLog is the reduced on-device recording: just the events (In.Event
// fields), to be replayed against the emulator in the cloud, where the
// full input/output profile is regenerated.
type EventLog struct {
	Game   string
	Events []LoggedEvent
}

// LoggedEvent is one recorded event: type name plus its quantized values.
type LoggedEvent struct {
	Type   string
	Seq    int64
	Time   units.Time
	Values []int64
}

// EncodeEventsOnly writes an events-only log as a gob stream.
func EncodeEventsOnly(w io.Writer, l *EventLog) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, magicEventsOnly); err != nil {
		return err
	}
	if err := gob.NewEncoder(bw).Encode(l); err != nil {
		return fmt.Errorf("trace: encode events: %w", err)
	}
	return bw.Flush()
}

// The trailer-guarded frame shared by the SNIPBTCH3 session-batch,
// SNIPTEL1 telemetry and SNIPDLT2 delta codecs: magic, gzip(body), then
// an integrity trailer of 4 marker bytes plus the big-endian CRC32
// (IEEE) of the gzip bytes. A flipped or truncated body is rejected
// deterministically at decode time instead of surfacing as a
// nondeterministic parse error deep in the body. The trailer is
// mandatory: a frame without the marker is rejected as corrupt.
const (
	batchTrailerMagic = "SNPC"
	batchTrailerLen   = len(batchTrailerMagic) + crc32.Size
)

// DefaultMaxDecodedBatch caps how many decompressed bytes DecodeBatch
// will accept — the library-level defense against gzip bombs. Servers
// pass tighter caps via DecodeBatchLimit.
const DefaultMaxDecodedBatch = 1 << 30

// Deterministic batch-rejection causes, counted by the cloud ingest
// metrics. Wrapped in the returned errors; test with errors.Is.
var (
	// ErrBatchChecksum marks a batch whose CRC32 trailer is missing or
	// does not match its payload, or whose payload carries bytes past its
	// end — a truncated or corrupted body.
	ErrBatchChecksum = errors.New("trace: batch checksum mismatch")
	// ErrBatchTooLarge marks a batch whose decompressed size exceeds the
	// decoder's cap — a gzip bomb or a runaway client.
	ErrBatchTooLarge = errors.New("trace: batch decoded size exceeds limit")
)

// A deflate compressor is most of a MiB of state, far more than a
// typical frame's payload, so frames reuse gzip writers instead of
// allocating one each. Reset leaves a writer byte-for-byte equivalent
// to a new one of the same level, so the pools are per level, indexed
// by level - gzip.HuffmanOnly.
var gzipWriters [gzip.BestCompression - gzip.HuffmanOnly + 1]sync.Pool // *gzip.Writer

// writeFrame writes one frame — magic + gzip(body) + CRC32 trailer —
// compressing at the given gzip level, which each codec fixes. body
// writes the uncompressed payload; label names the frame in errors.
func writeFrame(w io.Writer, magic, label string, level int, body func(io.Writer) error) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, magic); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)
	pool := &gzipWriters[level-gzip.HuffmanOnly]
	zw, _ := pool.Get().(*gzip.Writer)
	if zw == nil {
		var err error
		if zw, err = gzip.NewWriterLevel(out, level); err != nil {
			return fmt.Errorf("trace: encode %s: %w", label, err)
		}
	} else {
		zw.Reset(out)
	}
	defer pool.Put(zw)
	if err := body(zw); err != nil {
		return fmt.Errorf("trace: encode %s: %w", label, err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("trace: encode %s: %w", label, err)
	}
	if _, err := io.WriteString(bw, batchTrailerMagic); err != nil {
		return err
	}
	var sum [crc32.Size]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// readFrame reads a frame written by writeFrame, verifying the
// mandatory CRC32 trailer, and hands body the decompressed payload
// behind a reader that refuses to yield more than maxDecoded bytes.
// Truncated or corrupt input returns an error wrapping ErrBatchChecksum;
// oversized input one wrapping ErrBatchTooLarge. It never panics, whatever the input
// (pinned by the fuzz targets).
func readFrame(r io.Reader, magic, label string, maxDecoded int64, body func(io.Reader) error) error {
	br := bufio.NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return fmt.Errorf("trace: decode %s header: %w", label, err)
	}
	if string(got) != magic {
		return fmt.Errorf("trace: bad %s magic %q", label, got)
	}
	payload, err := io.ReadAll(br)
	if err != nil {
		return fmt.Errorf("trace: decode %s: %w", label, err)
	}
	n := len(payload)
	if n < batchTrailerLen ||
		string(payload[n-batchTrailerLen:n-crc32.Size]) != batchTrailerMagic {
		return fmt.Errorf("%w: missing integrity trailer", ErrBatchChecksum)
	}
	want := binary.BigEndian.Uint32(payload[n-crc32.Size:])
	payload = payload[:n-batchTrailerLen]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return fmt.Errorf("%w: crc %08x, trailer says %08x", ErrBatchChecksum, got, want)
	}
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("trace: decode %s: %w", label, err)
	}
	defer zr.Close()
	if maxDecoded <= 0 {
		maxDecoded = DefaultMaxDecodedBatch
	}
	lr := &cappedReader{r: zr, remaining: maxDecoded}
	if err := body(lr); err != nil {
		if lr.exceeded {
			return fmt.Errorf("%w (cap %d bytes)", ErrBatchTooLarge, maxDecoded)
		}
		return fmt.Errorf("trace: decode %s: %w", label, err)
	}
	// Anything left in the gzip stream after the body is garbage — a
	// stale or hand-spliced payload whose trailer happened to check out.
	var tail [1]byte
	if n, err := zr.Read(tail[:]); n != 0 || (err != nil && err != io.EOF) {
		return fmt.Errorf("%w: trailing garbage after %s payload", ErrBatchChecksum, label)
	}
	return nil
}

// withPayload reads a frame's whole decompressed payload and hands it
// to parse. A parsed batch or chain keeps no reference to its payload's
// bytes, so the buffers that hold payloads up to maxPooledPayload bytes
// are reused.
func withPayload(zr io.Reader, parse func([]byte) error) error {
	buf, _ := payloadBufs.Get().(*bytes.Buffer)
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	defer func() {
		if buf.Cap() <= maxPooledPayload {
			payloadBufs.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(zr); err != nil {
		return err
	}
	return parse(buf.Bytes())
}

var payloadBufs sync.Pool // *bytes.Buffer

const maxPooledPayload = 16 << 20

// encodeGobFrame writes v as one gob-bodied frame — the SNIPTEL1 wire
// form.
func encodeGobFrame(w io.Writer, magic, label string, v any) error {
	return writeFrame(w, magic, label, gzip.DefaultCompression, func(zw io.Writer) error {
		return gob.NewEncoder(zw).Encode(v)
	})
}

// decodeGobFrame reads a frame written by encodeGobFrame into v.
func decodeGobFrame(r io.Reader, magic, label string, maxDecoded int64, v any) error {
	return readFrame(r, magic, label, maxDecoded, func(zr io.Reader) error {
		return gob.NewDecoder(zr).Decode(v)
	})
}

// cappedReader bounds the bytes read through it, flagging (and erroring
// on) any attempt to read past the cap — the gzip-bomb guard. A stream
// of exactly the cap ends cleanly.
type cappedReader struct {
	r         io.Reader
	remaining int64
	exceeded  bool
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		var probe [1]byte
		if n, err := c.r.Read(probe[:]); n == 0 && err == io.EOF {
			return 0, io.EOF
		}
		c.exceeded = true
		return 0, ErrBatchTooLarge
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.r.Read(p)
	c.remaining -= int64(n)
	return n, err
}

// MarshalJSON-ready view types keep the JSON stable and readable.

type jsonField struct {
	Name     string `json:"name"`
	Category string `json:"category"`
	Size     int64  `json:"size"`
	Value    uint64 `json:"value"`
}

type jsonRecord struct {
	EventSeq     int64       `json:"event_seq"`
	EventType    string      `json:"event_type"`
	EventHash    uint64      `json:"event_hash"`
	Time         int64       `json:"time_us"`
	Instr        int64       `json:"instr"`
	StateChanged bool        `json:"state_changed"`
	Inputs       []jsonField `json:"inputs"`
	Outputs      []jsonField `json:"outputs"`
}

// WriteJSON writes the dataset as newline-delimited JSON, one record per
// line (the logcat-style dump format).
func WriteJSON(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	fields := func(cells []Cell) []jsonField {
		var out []jsonField
		for _, c := range cells {
			f := d.Field(c.ID)
			out = append(out, jsonField{f.Name, f.Category.String(), int64(f.Size), c.Value})
		}
		return out
	}
	for i := 0; i < d.Len(); i++ {
		r := d.Row(i)
		jr := jsonRecord{
			EventSeq: r.EventSeq, EventType: d.TypeName(r.Type), EventHash: r.EventHash,
			Time: int64(r.Time), Instr: r.Instr, StateChanged: r.StateChanged,
			Inputs: fields(r.Inputs), Outputs: fields(r.Outputs),
		}
		if err := enc.Encode(jr); err != nil {
			return fmt.Errorf("trace: write json: %w", err)
		}
	}
	return bw.Flush()
}

// countingWriter measures encoded size without buffering the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// TransferSize returns the gob-encoded size of the full dataset — what a
// naive client would upload to the cloud.
func TransferSize(d *Dataset) (units.Size, error) {
	var cw countingWriter
	if err := Encode(&cw, d); err != nil {
		return 0, err
	}
	return units.Size(cw.n), nil
}

// EventsOnlyTransferSize returns the gob-encoded size of the events-only
// log — SNIP's actual client upload.
func EventsOnlyTransferSize(l *EventLog) (units.Size, error) {
	var cw countingWriter
	if err := EncodeEventsOnly(&cw, l); err != nil {
		return 0, err
	}
	return units.Size(cw.n), nil
}
