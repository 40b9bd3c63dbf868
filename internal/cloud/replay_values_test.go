package cloud

import (
	"bytes"
	"errors"
	"net/http"
	"testing"

	"snip/internal/obs"
	"snip/internal/trace"
)

// malformedLog is a golden Colorphun log whose first event carries one
// value more than its type's schema — input only a broken or hostile
// client sends.
func malformedLog(t *testing.T) *trace.EventLog {
	t.Helper()
	log := recordLog(t, "Colorphun", replayGoldenSeed)
	ev := &log.Events[0]
	ev.Values = append(append([]int64(nil), ev.Values...), 7)
	return log
}

func TestReplayRejectsWrongValueCount(t *testing.T) {
	if _, err := Replay("Colorphun", replayGoldenSeed, malformedLog(t)); err == nil {
		t.Fatal("replayed an event with more values than its schema")
	}
}

// TestBatchWrongValueCountAnswered: a batch whose event carries the
// wrong number of values is refused and the service keeps serving.
func TestBatchWrongValueCountAnswered(t *testing.T) {
	_, srv := testServer(t)
	c := NewClient(srv.URL)
	bad := []trace.SessionEvents{{Seed: replayGoldenSeed, Log: malformedLog(t)}}
	if _, err := c.UploadBatch("Colorphun", bad); err == nil {
		t.Fatal("malformed batch accepted")
	}
	good := []trace.SessionEvents{{Seed: replayGoldenSeed, Log: recordLog(t, "Colorphun", replayGoldenSeed)}}
	if _, err := c.UploadBatch("Colorphun", good); err != nil {
		t.Fatalf("service refused a valid batch after a malformed one: %v", err)
	}
}

// TestBadLogAnswered400: a log the emulator cannot replay (a wrong value
// count, an unknown event type) is the uploader's fault. The upload
// endpoint answers 400 and counts it as corrupt, the client does not
// retry it, and the service still accepts a valid batch afterwards.
func TestBadLogAnswered400(t *testing.T) {
	svc, srv := testServer(t)
	c := NewClient(srv.URL)
	unknown := recordLog(t, "Colorphun", replayGoldenSeed)
	unknown.Events[0].Type = "NoSuchType"
	corrupt := func() int64 {
		return svc.Metrics().Snapshot().Counters["snip_cloud_uploads_rejected_corrupt_total"]
	}
	for _, bad := range []*trace.EventLog{malformedLog(t), unknown} {
		if _, err := Replay("Colorphun", replayGoldenSeed, bad); !errors.Is(err, ErrBadLog) {
			t.Fatalf("Replay error %v, want ErrBadLog", err)
		}

		before := corrupt()
		var buf bytes.Buffer
		err := trace.EncodeBatch(&buf, &trace.SessionBatch{
			Game: "Colorphun", Sessions: []trace.SessionEvents{{Seed: replayGoldenSeed, Log: bad}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp, body := post(t, srv.URL+"/v1/upload-batch?game=Colorphun", &buf); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/v1/upload-batch: status %d body %q, want 400", resp.StatusCode, body)
		}
		if got := corrupt() - before; got != 1 {
			t.Fatalf("/v1/upload-batch: %d corrupt rejections counted, want 1", got)
		}

		br, err := c.UploadBatchTraced("Colorphun", []trace.SessionEvents{{Seed: replayGoldenSeed, Log: bad}}, obs.SpanContext{})
		if err == nil {
			t.Fatal("UploadBatch accepted a bad log")
		}
		if br.Retries != 0 {
			t.Fatalf("UploadBatch retried a bad log %d times", br.Retries)
		}
	}
	good := []trace.SessionEvents{{Seed: replayGoldenSeed, Log: recordLog(t, "Colorphun", replayGoldenSeed)}}
	if _, err := c.UploadBatch("Colorphun", good); err != nil {
		t.Fatalf("service refused a valid batch after bad ones: %v", err)
	}
}
