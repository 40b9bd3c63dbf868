package chaos

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"snip/internal/rng"
)

// Transport wraps an http.RoundTripper with the profile's wire faults:
// requests are delayed, answered with synthetic 503s before reaching the
// server, or have their bodies truncated, bit-flipped, or replaced with
// a gzip bomb in flight. The uploading client sees exactly what a flaky
// cell link would show it — and the cloud ingest path must reject every
// corrupted body deterministically (CRC trailer, size caps) while the
// client retries the retryable failures.
//
// With no wire faults in the profile (or a nil injector) the base
// transport is returned unchanged, so the zero-chaos path adds nothing.
func (i *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if i == nil || !i.prof.WireEnabled() {
		return base
	}
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{inj: i, base: base, src: i.source(tagWire)}
}

// faultTransport deals per-request wire faults. Requests arrive from
// many device goroutines, so the fault stream is mutex-guarded: the
// fault MIX is seed-stable even though which request draws which fault
// depends on arrival order (wire chaos is load-shaped by nature; the
// determinism guarantee that matters — chaos OFF changes nothing — is
// preserved because this transport is never installed then).
type faultTransport struct {
	inj  *Injector
	base http.RoundTripper
	mu   sync.Mutex
	src  *rng.Source
}

// wireFault is one request's drawn fault plan.
type wireFault struct {
	slow     time.Duration
	fail5xx  bool
	truncate bool
	bitflip  int // number of bits to flip (0 = none)
	bomb     bool
}

func (t *faultTransport) draw() wireFault {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &t.inj.prof
	var f wireFault
	if p.WireSlowRate > 0 && t.src.Bool(p.WireSlowRate) {
		f.slow = p.WireSlow
		if f.slow <= 0 {
			f.slow = time.Millisecond
		}
	}
	if p.Wire5xxRate > 0 && t.src.Bool(p.Wire5xxRate) {
		f.fail5xx = true
	}
	// Body faults are exclusive: one corruption mode per request.
	switch {
	case p.WireBombRate > 0 && t.src.Bool(p.WireBombRate):
		f.bomb = true
	case p.WireTruncateRate > 0 && t.src.Bool(p.WireTruncateRate):
		f.truncate = true
	case p.WireBitFlipRate > 0 && t.src.Bool(p.WireBitFlipRate):
		f.bitflip = 1 + t.src.Intn(3)
	}
	return f
}

// flipBits flips n pseudo-random bits of body (drawn under the mutex so
// the positions come from the same seeded stream).
func (t *faultTransport) flipBits(body []byte, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := 0; k < n; k++ {
		pos := t.src.Intn(len(body))
		body[pos] ^= 1 << uint(t.src.Intn(8))
	}
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.draw()
	if f.slow > 0 {
		t.inj.count(&t.inj.wireSlowed, "wire_slow", 1)
		time.Sleep(f.slow)
	}
	if f.fail5xx {
		t.inj.count(&t.inj.wire5xx, "wire_5xx", 1)
		// Drain and close the body like a real transport would, then
		// answer for an overloaded upstream. 503 is retryable: the client
		// backs off and the request eventually lands.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return synthetic503(req), nil
	}
	if req.Body != nil && (f.bomb || f.truncate || f.bitflip > 0) {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("chaos: reading request body: %w", err)
		}
		switch {
		case f.bomb:
			body = bombBody()
			t.inj.count(&t.inj.wireBombs, "wire_bomb", 1)
		case f.truncate && len(body) > 1:
			body = body[:len(body)/2]
			t.inj.count(&t.inj.wireTruncated, "wire_truncated", 1)
		case f.bitflip > 0 && len(body) > 0:
			t.flipBits(body, f.bitflip)
			t.inj.count(&t.inj.wireBitFlipped, "wire_bit_flipped", 1)
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
	}
	return t.base.RoundTrip(req)
}

func synthetic503(req *http.Request) *http.Response {
	const msg = "chaos: injected upstream overload\n"
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(strings.NewReader(msg)),
		ContentLength: int64(len(msg)),
		Request:       req,
	}
}

// The gzip bomb: a syntactically valid SNIPBTCH3 body — correct magic,
// well-formed gzip stream, valid CRC trailer — whose DECOMPRESSED size
// (~48 MiB of zeros) blows far past the server's decoded-size cap while
// compressing to a few tens of KiB on the wire. It sails through the
// compressed-size limiter and the checksum; only the decoded-size cap
// (trace.DecodeBatchLimit's cappedReader) stops it. Built once, lazily.
var (
	bombOnce sync.Once
	bombBuf  []byte
)

func bombBody() []byte {
	bombOnce.Do(func() {
		var buf bytes.Buffer
		buf.WriteString("SNIPBTCH3")
		crc := crc32.NewIEEE()
		zw := gzip.NewWriter(io.MultiWriter(&buf, crc))
		// Plain zeros suffice: the decoder drains the whole decompressed
		// stream through its capped reader before it parses a byte, so
		// the cap trips before the zeros can fail as a malformed payload
		// (which the server would count as corruption, not oversize).
		const bombSize = 48 << 20
		zeros := make([]byte, 1<<16)
		for written := 0; written < bombSize; written += len(zeros) {
			zw.Write(zeros)
		}
		zw.Close()
		buf.WriteString("SNPC")
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc.Sum32())
		buf.Write(sum[:])
		bombBuf = buf.Bytes()
	})
	return bombBuf
}
