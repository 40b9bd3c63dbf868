package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"snip/internal/cloud"
	"snip/internal/memo"
	"snip/internal/pfi"
	"snip/internal/rng"
)

// TestOverloadSchedulerWorkerInvariance pins the shared scheduler's
// determinism contract: the worker-pool size only changes wall-clock
// interleaving, never tallies. A serve-only fleet (fixed table, no
// swaps) must produce byte-identical per-device results at any worker
// count.
func TestOverloadSchedulerWorkerInvariance(t *testing.T) {
	_, srv, _, table := bootCloud(t)
	srv.Close()
	run := func(workers int) *Result {
		res, err := Run(Config{
			Game: testGame, Devices: 6, SessionsPerDevice: 2,
			SessionDuration: testDur, SeedBase: 5000,
			Table: memo.NewShared(table), Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if a.Sessions != b.Sessions || a.Events != b.Events || a.Lookup != b.Lookup {
		t.Fatalf("aggregates depend on worker count:\n  1 worker:  %+v\n  4 workers: %+v", a.Lookup, b.Lookup)
	}
	for i := range a.PerDevice {
		da, db := a.PerDevice[i], b.PerDevice[i]
		if da.Events != db.Events || da.Lookup != db.Lookup || da.Sessions != db.Sessions {
			t.Fatalf("device %d differs across worker counts:\n  1 worker:  %+v\n  4 workers: %+v", i, da, db)
		}
	}
}

// TestOverloadFleetShedConservation is the fleet e2e overload gate: a
// near-zero per-game quota sheds most bulk uploads, and the device- and
// cloud-side ledgers both keep offered = accepted + shed + dropped
// while guard-class traffic is never shed and backoff accrues on
// simulated time only.
func TestOverloadFleetShedConservation(t *testing.T) {
	svc := cloud.NewServiceWithOptions(pfi.DefaultConfig(), cloud.ServiceOptions{
		Quota: cloud.QuotaConfig{RatePerSec: 0.001, Burst: 1},
	})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	client := cloud.NewClient(srv.URL)

	res, err := Run(Config{
		Game: testGame, Devices: 6, SessionsPerDevice: 2,
		SessionDuration: testDur, SeedBase: 6000,
		Table: memo.NewShared(nil), Client: client, BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.OfferedBatches != res.Batches+res.BatchesShed+res.BatchesDropped {
		t.Fatalf("device ledger broken: offered=%d accepted=%d shed=%d dropped=%d",
			res.OfferedBatches, res.Batches, res.BatchesShed, res.BatchesDropped)
	}
	if res.OfferedBatches != 12 {
		t.Fatalf("offered %d batches, want 12 (6 devices x 2 sessions, batch size 1)", res.OfferedBatches)
	}
	if res.BatchesShed == 0 || res.Shed429 == 0 {
		t.Fatalf("quota of 1 burst shed nothing: %+v", res)
	}
	if res.BatchesDropped != 0 {
		t.Fatalf("sheds miscounted as drops: %d", res.BatchesDropped)
	}
	if res.BackoffNS <= 0 {
		t.Fatal("no simulated backoff accrued despite retried sheds")
	}
	// Shed batches consume the batch, not the device: everyone finishes.
	for _, d := range res.PerDevice {
		if d.Failed {
			t.Fatalf("device %d failed under shedding: %s", d.Device, d.FailReason)
		}
		if d.OfferedBatches != d.Batches+d.BatchesShed+d.BatchesDropped {
			t.Fatalf("device %d ledger broken: %+v", d.Device, d)
		}
	}

	oz := svc.Overloadz()
	var bulkShed int64
	for _, c := range oz.Classes {
		if c.Offered != c.Accepted+c.Shed+c.Dropped {
			t.Fatalf("cloud class %s ledger broken: %+v", c.Class, c)
		}
		switch c.Class {
		case "guard":
			if c.Shed != 0 {
				t.Fatalf("guard class shed %d requests", c.Shed)
			}
		case "bulk":
			bulkShed = c.Shed
		}
	}
	// Every client-observed 429 is a cloud-side bulk shed.
	if bulkShed != res.Shed429 {
		t.Fatalf("cloud shed %d bulk requests, clients observed %d", bulkShed, res.Shed429)
	}
}

// TestOverloadRejectedUploadDropsBatch: a cloud that answers every
// upload batch with a non-429 error (here 400) costs each batch, never
// the device. Every device plays all its sessions, every offered batch
// is booked dropped, and telemetry, which the cloud still accepts,
// ships in full.
func TestOverloadRejectedUploadDropsBatch(t *testing.T) {
	svc, srv, client, table := bootCloud(t)
	srv.Close()
	cloudSrv := svc.Handler()
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/upload-batch" {
			http.Error(w, "rejected", http.StatusBadRequest)
			return
		}
		cloudSrv.ServeHTTP(w, r)
	}))
	t.Cleanup(rejecting.Close)
	client.BaseURL = rejecting.URL

	const devices, sessions = 3, 2
	res, err := Run(Config{
		Game: testGame, Devices: devices, SessionsPerDevice: sessions,
		SessionDuration: testDur, SeedBase: 8500,
		Table: memo.NewShared(table), Client: client, BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedDevices != 0 || res.Sessions != devices*sessions {
		t.Fatalf("rejected uploads cost devices: %d failed, %d sessions, want 0 and %d",
			res.FailedDevices, res.Sessions, devices*sessions)
	}
	if res.OfferedBatches != devices*sessions || res.BatchesDropped != res.OfferedBatches ||
		res.Batches != 0 || res.BatchesShed != 0 || res.Shed429 != 0 {
		t.Fatalf("ledger: offered=%d accepted=%d shed=%d dropped=%d 429s=%d, want every batch dropped",
			res.OfferedBatches, res.Batches, res.BatchesShed, res.BatchesDropped, res.Shed429)
	}
	if res.Retries != 0 || res.BackoffNS != 0 {
		t.Fatalf("a 400 was retried: %d retries, %d ns backoff", res.Retries, res.BackoffNS)
	}
	if res.Telemetry == nil || res.Telemetry.Records == 0 || res.Telemetry.Dropped != 0 {
		t.Fatalf("telemetry: %+v, want every record shipped", res.Telemetry)
	}
}

// TestOverloadOffIsByteIdentical pins the regression gate the figures
// depend on: without a client the scheduler path must produce exactly
// the tallies the goroutine-per-device harness did, and no overload
// ledger field may leak in.
func TestOverloadOffIsByteIdentical(t *testing.T) {
	_, srv, _, table := bootCloud(t)
	srv.Close()
	res, err := Run(Config{
		Game: testGame, Devices: 3, SessionsPerDevice: 1,
		SessionDuration: testDur, SeedBase: 8000,
		Table: memo.NewShared(table),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed429 != 0 || res.BatchesShed != 0 || res.BatchesDropped != 0 || res.BackoffNS != 0 {
		t.Fatalf("overload-off run carries overload tallies: %+v", res)
	}
	// Offered always mirrors accepted when nothing sheds, so the
	// conservation identity holds trivially on legacy runs too.
	if res.OfferedBatches != res.Batches {
		t.Fatalf("offered %d != accepted %d on a clean run", res.OfferedBatches, res.Batches)
	}
}

// BenchmarkSchedulerClaim is in ci.sh's zero-allocation gate: the
// per-device work a scheduler worker does to claim and parameterize the
// next device (atomic claim, jitter draw) must stay allocation-free —
// it runs 100k times per fleet run.
func BenchmarkSchedulerClaim(b *testing.B) {
	cfg := Config{Devices: 1 << 30}
	var next atomic.Int64
	jr := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := int(next.Add(1)) - 1
		if d >= cfg.Devices {
			b.Fatal("claimed past the fleet")
		}
		_ = jr.Uint64() % 1000
	}
}
