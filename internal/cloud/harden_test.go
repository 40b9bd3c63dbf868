package cloud

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"strings"
	"testing"

	"snip/internal/trace"
)

// TestBatchOversizedCompressedRejected: a compressed body past
// MaxBatchBytes answers 413 before any decoding happens.
func TestBatchOversizedCompressedRejected(t *testing.T) {
	svc, srv := testServer(t)
	big := bytes.Repeat([]byte("x"), MaxBatchBytes+1)
	resp, _ := post(t, srv.URL+"/v1/upload-batch?game=Colorphun", bytes.NewReader(big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	snap := svc.Metrics().Snapshot()
	if snap.Counters["snip_cloud_uploads_rejected_oversize_total"] != 1 {
		t.Fatal("oversize rejection not counted")
	}
}

// gzipBomb builds a syntactically valid SNIPBTCH3 body whose payload
// decompresses past the server's decoded cap: correct magic, valid gzip,
// valid CRC trailer — only the decoded-size guard can stop it. The
// payload is plain zeros: the decoder drains the stream to the cap
// before parsing any of it.
func gzipBomb(t *testing.T, decoded int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("SNIPBTCH3")
	crc := crc32.NewIEEE()
	zw := gzip.NewWriter(io.MultiWriter(&buf, crc))
	zeros := make([]byte, 1<<16)
	for written := 0; written < decoded; written += len(zeros) {
		if _, err := zw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("SNPC")
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	buf.Write(sum[:])
	return buf.Bytes()
}

// TestBatchGzipBombRejected: the bomb passes the compressed-size check
// and the checksum, and dies at the decoded cap with 413.
func TestBatchGzipBombRejected(t *testing.T) {
	svc, srv := testServer(t)
	bomb := gzipBomb(t, MaxBatchDecodedBytes+(1<<20))
	if len(bomb) >= MaxBatchBytes {
		t.Fatalf("bomb is %d bytes on the wire; it must fit under the compressed cap to prove the decoded cap works", len(bomb))
	}
	resp, body := post(t, srv.URL+"/v1/upload-batch?game=Colorphun", bytes.NewReader(bomb))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d body %q, want 413", resp.StatusCode, body)
	}
	snap := svc.Metrics().Snapshot()
	if snap.Counters["snip_cloud_uploads_rejected_oversize_total"] != 1 {
		t.Fatal("bomb not counted as oversize")
	}
	if snap.Counters["snip_cloud_uploads_rejected_corrupt_total"] != 0 {
		t.Fatal("bomb miscounted as corrupt")
	}
}

// TestBatchCorruptCounted: a flipped bit in an otherwise valid batch is
// caught by the CRC trailer, answered 400, and counted as corrupt.
func TestBatchCorruptCounted(t *testing.T) {
	svc, srv := testServer(t)
	log := &trace.EventLog{Game: "Colorphun", Events: []trace.LoggedEvent{
		{Type: "touch", Seq: 1, Time: 1000, Values: []int64{3}},
	}}
	var buf bytes.Buffer
	err := trace.EncodeBatch(&buf, &trace.SessionBatch{
		Game: "Colorphun", Sessions: []trace.SessionEvents{{Seed: 1, Log: log}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	wire[len(wire)/2] ^= 0x20
	resp, body := post(t, srv.URL+"/v1/upload-batch?game=Colorphun", bytes.NewReader(wire))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d body %q, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(body, "checksum") {
		t.Fatalf("body %q, want a checksum message", body)
	}
	snap := svc.Metrics().Snapshot()
	if snap.Counters["snip_cloud_uploads_rejected_corrupt_total"] != 1 {
		t.Fatal("corrupt rejection not counted")
	}
}

// TestBatchTrailerlessCounted: a batch cut short by its 8-byte trailer
// — a truncated body; no writer of a trailerless SNIPBTCH3 frame ever
// existed — answers 400 and counts as corrupt, like any other body
// that is not the one that was sent.
func TestBatchTrailerlessCounted(t *testing.T) {
	svc, srv := testServer(t)
	log := &trace.EventLog{Game: "Colorphun", Events: []trace.LoggedEvent{
		{Type: "touch", Seq: 1, Time: 1000, Values: []int64{3}},
	}}
	var buf bytes.Buffer
	err := trace.EncodeBatch(&buf, &trace.SessionBatch{
		Game: "Colorphun", Sessions: []trace.SessionEvents{{Seed: 1, Log: log}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()[:buf.Len()-8] // strip "SNPC" + CRC32
	resp, body := post(t, srv.URL+"/v1/upload-batch?game=Colorphun", bytes.NewReader(wire))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d body %q, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(body, "missing integrity trailer") {
		t.Fatalf("body %q, want a missing-trailer message", body)
	}
	snap := svc.Metrics().Snapshot()
	if snap.Counters["snip_cloud_uploads_rejected_corrupt_total"] != 1 {
		t.Fatal("truncated batch not counted as corrupt")
	}
}

// TestBatchOldMagicCounted: a batch framed under a retired magic —
// SNIPBTCH1, the gob batch, or SNIPBTCH2, the row-major payload —
// answers 400 at the header and counts as corrupt; no reader for either
// format remains.
func TestBatchOldMagicCounted(t *testing.T) {
	log := &trace.EventLog{Game: "Colorphun", Events: []trace.LoggedEvent{
		{Type: "touch", Seq: 1, Time: 1000, Values: []int64{3}},
	}}
	var buf bytes.Buffer
	err := trace.EncodeBatch(&buf, &trace.SessionBatch{
		Game: "Colorphun", Sessions: []trace.SessionEvents{{Seed: 1, Log: log}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"SNIPBTCH1", "SNIPBTCH2"} {
		svc, srv := testServer(t)
		wire := append([]byte(magic), buf.Bytes()[len("SNIPBTCH3"):]...)
		resp, body := post(t, srv.URL+"/v1/upload-batch?game=Colorphun", bytes.NewReader(wire))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d body %q, want 400", magic, resp.StatusCode, body)
		}
		if !strings.Contains(body, "magic") {
			t.Fatalf("%s: body %q, want a bad-magic message", magic, body)
		}
		snap := svc.Metrics().Snapshot()
		if snap.Counters["snip_cloud_uploads_rejected_corrupt_total"] != 1 {
			t.Fatalf("%s: old-magic rejection not counted as corrupt", magic)
		}
	}
}

// TestGuardEndpointDrivesHealthz walks the degraded→recovered cycle: an
// open-breaker report flips /v1/healthz to 503/degraded with a failing
// guard check; a closed-breaker report recovers it.
func TestGuardEndpointDrivesHealthz(t *testing.T) {
	svc, srv := testServer(t)
	client := NewClient(srv.URL)

	report := func(open bool, rollbacks int64) {
		t.Helper()
		err := client.ReportGuard("Colorphun", GuardStatus{
			BreakerOpen: open, ShadowChecks: 40, Mispredicts: 6,
			Trips: 1, Rollbacks: rollbacks, Generation: 2,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}

	guardCheck := func(reply string) (ok bool, found bool) {
		t.Helper()
		var parsed struct {
			Status string `json:"status"`
			Checks []struct {
				Name string `json:"name"`
				OK   bool   `json:"ok"`
			} `json:"checks"`
		}
		if err := json.Unmarshal([]byte(reply), &parsed); err != nil {
			t.Fatal(err)
		}
		for _, c := range parsed.Checks {
			if c.Name == "guard_breaker_Colorphun" {
				return c.OK, true
			}
		}
		return false, false
	}

	report(true, 0)
	resp, body := get(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: healthz status %d, want 503", resp.StatusCode)
	}
	if ok, found := guardCheck(body); !found || ok {
		t.Fatalf("open breaker: guard check found=%v ok=%v, want failing check", found, ok)
	}

	report(false, 1)
	resp, body = get(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("closed breaker: healthz status %d, want 200", resp.StatusCode)
	}
	if ok, found := guardCheck(body); !found || !ok {
		t.Fatalf("closed breaker: guard check found=%v ok=%v, want passing check", found, ok)
	}

	// The check carries the stored report: the recovery's rollback and
	// generation, and no check for a game that never reported.
	var stored *HealthCheck
	for _, c := range svc.Healthz().Checks {
		switch c.Name {
		case "guard_breaker_Colorphun":
			stored = &c
		case "guard_breaker_NeverReported":
			t.Fatal("guard check invented for an unreported game")
		}
	}
	if stored == nil || !stored.OK ||
		!strings.Contains(stored.Detail, "1 rollbacks") || !strings.Contains(stored.Detail, "generation 2") {
		t.Fatalf("stored guard check %+v, want the recovery report", stored)
	}
}

// TestGuardEndpointValidation: missing game and junk bodies answer 400.
func TestGuardEndpointValidation(t *testing.T) {
	_, srv := testServer(t)
	resp, _ := post(t, srv.URL+"/v1/guard", strings.NewReader("{}"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing game: status %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, srv.URL+"/v1/guard?game=Colorphun", strings.NewReader("not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk body: status %d, want 400", resp.StatusCode)
	}
}
