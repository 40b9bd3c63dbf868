package cloud

import (
	"net/http/httptest"
	"testing"

	"snip/internal/memo"
	"snip/internal/pfi"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

const testDur = 15 * units.Second

func record(t *testing.T, game string, seed uint64) *schemes.Result {
	t.Helper()
	r, err := schemes.Run(schemes.Config{
		Game: game, Seed: seed, Duration: testDur,
		Scheme: schemes.Baseline, CollectTrace: true, CollectEventLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// uploadSession sends one session's events-only log as a one-session
// batch.
func uploadSession(c *Client, game string, seed uint64, log *trace.EventLog) error {
	_, err := c.UploadBatch(game, []trace.SessionEvents{{Seed: seed, Log: log}})
	return err
}

// TestReplayReconstructsProfile is the keystone of the cloud design: the
// emulator replay of an events-only log must reproduce EXACTLY the full
// profile the device would have recorded — that is why uploading only
// events is enough.
func TestReplayReconstructsProfile(t *testing.T) {
	for _, game := range []string{"Colorphun", "CandyCrush", "ChaseWhisply"} {
		dev := record(t, game, 42)
		replayed, err := Replay(game, 42, dev.EventLog)
		if err != nil {
			t.Fatal(err)
		}
		if replayed.Len() != dev.Dataset.Len() {
			t.Fatalf("%s: replay %d records vs device %d", game, replayed.Len(), dev.Dataset.Len())
		}
		for i := 0; i < replayed.Len(); i++ {
			if replayed.InputHash(i) != dev.Dataset.InputHash(i) || replayed.OutputHash(i) != dev.Dataset.OutputHash(i) {
				t.Fatalf("%s: record %d (%s) diverged in replay", game, i, replayed.Record(i).EventType)
			}
		}
	}
}

func TestReplayRejectsUnknownEventType(t *testing.T) {
	log := &trace.EventLog{Game: "Colorphun", Events: []trace.LoggedEvent{
		{Type: "warp", Values: []int64{1}},
	}}
	if _, err := Replay("Colorphun", 1, log); err == nil {
		t.Fatal("unknown event type accepted")
	}
	if _, err := Replay("NoSuchGame", 1, &trace.EventLog{}); err == nil {
		t.Fatal("unknown game accepted")
	}
}

// TestReplayBatchMatchesSerial checks the fan-out path: a parallel batch
// replay must produce exactly the datasets serial replay would, in upload
// order, for any worker count.
func TestReplayBatchMatchesSerial(t *testing.T) {
	const game = "Colorphun"
	var logs []SessionLog
	var want []*trace.Dataset
	for seed := uint64(1); seed <= 4; seed++ {
		dev := record(t, game, seed)
		logs = append(logs, SessionLog{Seed: seed, Log: dev.EventLog})
		want = append(want, dev.Dataset)
	}
	for _, workers := range []int{1, 4, 8} {
		got, err := ReplayBatch(game, workers, logs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d datasets vs %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Len() != want[i].Len() {
				t.Fatalf("workers=%d: dataset %d has %d records vs %d", workers, i, got[i].Len(), want[i].Len())
			}
			for j := 0; j < got[i].Len(); j++ {
				if got[i].InputHash(j) != want[i].InputHash(j) || got[i].OutputHash(j) != want[i].OutputHash(j) {
					t.Fatalf("workers=%d: dataset %d record %d diverged", workers, i, j)
				}
			}
		}
	}

	// IngestLogs must equal ingesting the same logs one by one.
	serial := NewProfiler(game, pfi.DefaultConfig())
	for _, l := range logs {
		if err := serial.IngestLogs(1, []SessionLog{{Seed: l.Seed, Log: l.Log}}); err != nil {
			t.Fatal(err)
		}
	}
	batch := NewProfiler(game, pfi.DefaultConfig())
	if err := batch.IngestLogs(4, logs); err != nil {
		t.Fatal(err)
	}
	if serial.ProfileLen() != batch.ProfileLen() {
		t.Fatalf("batch profile %d records vs serial %d", batch.ProfileLen(), serial.ProfileLen())
	}
	for i := 0; i < serial.profile.Len(); i++ {
		if serial.profile.InputHash(i) != batch.profile.InputHash(i) || serial.profile.OutputHash(i) != batch.profile.OutputHash(i) {
			t.Fatalf("batch profile record %d diverged from serial ingest", i)
		}
	}
}

func TestProfilerRebuild(t *testing.T) {
	p := NewProfiler("Greenwall", pfi.DefaultConfig())
	if _, err := p.Rebuild(); err == nil {
		t.Fatal("rebuild on empty profile accepted")
	}
	dev := record(t, "Greenwall", 7)
	if err := p.IngestLogs(1, []SessionLog{{Seed: 7, Log: dev.EventLog}}); err != nil {
		t.Fatal(err)
	}
	if p.ProfileLen() != dev.Dataset.Len() {
		t.Fatalf("profile %d records", p.ProfileLen())
	}
	up, err := p.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if up.Version != 1 || up.Table.Rows() == 0 {
		t.Fatalf("update %+v", up)
	}
	if p.Latest() != up {
		t.Fatal("Latest() mismatch")
	}
	// Second ingest bumps the version.
	p.IngestDataset(record(t, "Greenwall", 8).Dataset)
	up2, err := p.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if up2.Version != 2 || up2.ProfileRecords <= up.ProfileRecords {
		t.Fatal("version/profile bookkeeping broken")
	}
}

func TestLearnerTruncatesFirstEpoch(t *testing.T) {
	l := NewLearner("Colorphun", pfi.DefaultConfig(), 100)
	ds := record(t, "Colorphun", 3).Dataset
	if _, err := l.Epoch(ds); err != nil {
		t.Fatal(err)
	}
	if l.Profiler.ProfileLen() != 100 {
		t.Fatalf("first epoch profile %d, want the 100-record cap", l.Profiler.ProfileLen())
	}
	if _, err := l.Epoch(ds); err != nil {
		t.Fatal(err)
	}
	if l.Profiler.ProfileLen() != 100+ds.Len() {
		t.Fatalf("second epoch profile %d", l.Profiler.ProfileLen())
	}
	if l.Epochs() != 2 {
		t.Fatalf("epochs %d", l.Epochs())
	}
}

func TestHTTPServiceEndToEnd(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	// No table yet.
	if _, err := client.FetchTable("Colorphun"); err == nil {
		t.Fatal("fetch before build should fail")
	}

	for seed := uint64(0xA1); seed <= 0xA3; seed++ {
		dev := record(t, "Colorphun", seed)
		if err := uploadSession(client, "Colorphun", seed, dev.EventLog); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Rebuild("Colorphun"); err != nil {
		t.Fatal(err)
	}
	up, err := client.FetchTable("Colorphun")
	if err != nil {
		t.Fatal(err)
	}
	if up.Table.Rows() == 0 || up.Game != "Colorphun" {
		t.Fatalf("fetched update %+v", up)
	}
	// The table serves from the buffer the reply was read into, sized
	// from its Content-Length: no slack rides along as arena.
	if img := up.Table.(*memo.FlatTable).Image(); cap(img) != len(img) {
		t.Fatalf("fetched image holds %d bytes in a buffer of %d", len(img), cap(img))
	}

	// The fetched table actually works in a session.
	r, err := schemes.Run(schemes.Config{
		Game: "Colorphun", Seed: 1, Duration: testDur,
		Scheme: schemes.SNIP, Table: up.Table,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.SnippedEvents == 0 {
		t.Fatal("OTA table snipped nothing")
	}
}

func TestHTTPValidation(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	// Upload with a bogus body errors.
	if err := client.Rebuild("Nothing"); err == nil {
		t.Fatal("rebuild of unknown game should fail (empty profile)")
	}
}

func TestBackendCostMonotone(t *testing.T) {
	small := BackendCost(1000, 10)
	big := BackendCost(100000, 40)
	if small <= 0 || big <= small {
		t.Fatalf("backend cost not monotone: %v %v", small, big)
	}
}
