package cloud

import (
	"testing"

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
