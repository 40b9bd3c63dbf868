package cloud

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"snip/internal/obs"
	"snip/internal/pfi"
	"snip/internal/trace"
)

// TestBatchUploadMatchesSequential is the ingest-equivalence contract:
// one gzip'd batch must leave the profiler in exactly the state that the
// same sessions uploaded one by one would, because sessions replay in
// upload order either way.
func TestBatchUploadMatchesSequential(t *testing.T) {
	seeds := []uint64{0xA1, 0xA2, 0xA3}
	var sessions []trace.SessionEvents
	for _, s := range seeds {
		sessions = append(sessions, trace.SessionEvents{Seed: s, Log: record(t, "Colorphun", s).EventLog})
	}

	// Sequential uploads.
	_, seqSrv := testServer(t)
	seq := NewClient(seqSrv.URL)
	for i, s := range seeds {
		if err := uploadSession(seq, "Colorphun", s, sessions[i].Log); err != nil {
			t.Fatal(err)
		}
	}
	_, seqStatus := get(t, seqSrv.URL+"/v1/status?game=Colorphun")

	// One batch upload.
	batSvc, batSrv := testServer(t)
	bat := NewClient(batSrv.URL)
	wire, err := bat.UploadBatch("Colorphun", sessions)
	if err != nil {
		t.Fatal(err)
	}
	if wire <= 0 {
		t.Fatalf("wire size %v", wire)
	}
	_, batStatus := get(t, batSrv.URL+"/v1/status?game=Colorphun")

	if seqStatus != batStatus {
		t.Fatalf("batched profile diverged:\n  sequential: %s  batch:      %s", seqStatus, batStatus)
	}

	// The batch is smaller on the wire than the per-session uploads.
	var raw int64
	for i := range sessions {
		sz, err := trace.EventsOnlyTransferSize(sessions[i].Log)
		if err != nil {
			t.Fatal(err)
		}
		raw += int64(sz)
	}
	if int64(wire) >= raw {
		t.Fatalf("batch (%d B) not smaller than %d B of per-session uploads", wire, raw)
	}

	// Metrics: 3 sessions counted as uploads, 1 batch, bytes recorded.
	snap := batSvc.Metrics().Snapshot()
	if got := snap.Counters["snip_cloud_uploads_total"]; got != 3 {
		t.Errorf("uploads %d, want 3", got)
	}
	if got := snap.Counters["snip_cloud_upload_batches_total"]; got != 1 {
		t.Errorf("batches %d, want 1", got)
	}
	if got := snap.Counters["snip_cloud_upload_batch_bytes_total"]; got != int64(wire) {
		t.Errorf("batch bytes %d, want %d", got, wire)
	}
}

func TestBatchUploadRejectsBadInput(t *testing.T) {
	_, srv := testServer(t)
	c := NewClient(srv.URL)

	// Empty batch.
	if _, err := c.UploadBatch("Colorphun", nil); err == nil || !strings.Contains(err.Error(), "empty batch") {
		t.Fatalf("empty batch error %v", err)
	}
	// Corrupt body.
	resp, body := post(t, srv.URL+"/v1/upload-batch?game=Colorphun",
		bytes.NewReader([]byte("definitely not a batch")))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "bad batch") {
		t.Fatalf("corrupt batch: status %d body %q", resp.StatusCode, body)
	}
	// Game mismatch between query and payload.
	var buf bytes.Buffer
	log := record(t, "Colorphun", 7).EventLog
	if err := trace.EncodeBatch(&buf, &trace.SessionBatch{
		Game: "Colorphun", Sessions: []trace.SessionEvents{{Seed: 7, Log: log}},
	}); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, srv.URL+"/v1/upload-batch?game=MemoryGame", &buf)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "batch game") {
		t.Fatalf("game mismatch: status %d body %q", resp.StatusCode, body)
	}
}

// TestBatchCodecRoundtrip pins the gzip'd wire form.
func TestBatchCodecRoundtrip(t *testing.T) {
	log := record(t, "Colorphun", 9).EventLog
	in := &trace.SessionBatch{Game: "Colorphun", Sessions: []trace.SessionEvents{
		{Seed: 9, Log: log}, {Seed: 10, Log: log},
	}}
	var buf bytes.Buffer
	if err := trace.EncodeBatch(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := trace.DecodeBatch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Game != in.Game || len(out.Sessions) != 2 || out.Sessions[0].Seed != 9 {
		t.Fatalf("roundtrip mangled batch: %+v", out)
	}
	if len(out.Sessions[1].Log.Events) != len(log.Events) {
		t.Fatal("events lost in roundtrip")
	}
	if _, err := trace.DecodeBatch(bytes.NewReader([]byte("SNIPEVTS1junk"))); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

// flakyHandler fails the first n requests with 503, then delegates.
type flakyHandler struct {
	remaining atomic.Int64
	next      http.Handler
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.remaining.Add(-1) >= 0 {
		http.Error(w, "synthetic outage", http.StatusServiceUnavailable)
		return
	}
	f.next.ServeHTTP(w, r)
}

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// TestClientRetriesTransient5xx: the client must ride out a transient
// outage within its retry budget and count every retry attempt.
func TestClientRetriesTransient5xx(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{})
	flaky := &flakyHandler{next: svc.Handler()}
	flaky.remaining.Store(2)
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	reg := obs.NewRegistry()
	c := NewClient(srv.URL)
	c.Retry = fastRetry(3)
	c.SetMetrics(reg)

	if err := uploadSession(c, "Colorphun", 0xA1, record(t, "Colorphun", 0xA1).EventLog); err != nil {
		t.Fatalf("upload did not survive 2 transient 503s: %v", err)
	}
	if got := reg.Snapshot().Counters["snip_cloud_client_retries_total"]; got != 2 {
		t.Fatalf("retry counter %d, want 2", got)
	}
}

// TestClientRetryExhaustion: a persistent outage surfaces after the
// bounded attempts, not an infinite loop.
func TestClientRetryExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retry = fastRetry(3)
	err := c.Rebuild("Colorphun")
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err %v, want bounded give-up", err)
	}
}

// TestClientNoRetryOn4xx: client errors are not transient; retrying them
// would only amplify load and latency.
func TestClientNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retry = fastRetry(5)
	if err := c.Rebuild("Colorphun"); err == nil {
		t.Fatal("4xx swallowed")
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried: %d calls", calls.Load())
	}
}

// TestRetryBackoffBounds pins the jittered exponential shape.
func TestRetryBackoffBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	for attempt := 1; attempt <= 6; attempt++ {
		cap := p.BaseDelay << (attempt - 1)
		if cap > p.MaxDelay {
			cap = p.MaxDelay
		}
		for i := 0; i < 50; i++ {
			d := p.backoff(attempt)
			if d <= 0 || d > cap {
				t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, cap)
			}
		}
	}
}
