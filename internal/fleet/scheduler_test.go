package fleet

import (
	"math"
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

// TestOverloadSpeedGrades pins the heterogeneous-SoC knob: grades cycle
// by device id, grade 1.0 (and no grades at all) is the exact baseline,
// and a slower grade shows up as a slower modeled device.
func TestOverloadSpeedGrades(t *testing.T) {
	cfg := Config{SpeedGrades: []float64{1, 0.5, 2}}
	for id, want := range map[int]float64{0: 1, 1: 0.5, 2: 2, 3: 1, 4: 0.5} {
		if got := cfg.speedGrade(id); got != want {
			t.Errorf("grade(%d) = %v, want %v", id, got, want)
		}
	}
	if got := (Config{}).speedGrade(3); got != 1 {
		t.Errorf("homogeneous fleet grade %v, want 1", got)
	}
	if got := (Config{SpeedGrades: []float64{-2}}).speedGrade(0); got != 1 {
		t.Errorf("non-positive grade not defaulted: %v", got)
	}
	valid := Config{Game: testGame, Devices: 1, SessionsPerDevice: 1, SessionDuration: testDur,
		Table: memo.NewShared(nil), SpeedGrades: []float64{1, -2, 0.5}}
	if err := valid.validate(); err != nil {
		t.Fatalf("finite grades rejected: %v", err)
	}
	for _, g := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := valid
		bad.SpeedGrades = []float64{1, g}
		if err := bad.validate(); err == nil {
			t.Errorf("grade %v accepted", g)
		}
	}
	base := speedRates(1)
	slow := speedRates(0.5)
	// A slower clock holds the pipeline longer per instruction, so each
	// instruction costs more energy.
	if slow.PerInstrUJ <= base.PerInstrUJ {
		t.Fatalf("grade 0.5 not costlier per instruction: %v vs %v µJ", slow.PerInstrUJ, base.PerInstrUJ)
	}
	if zero := speedRates(0); zero != base {
		t.Fatalf("grade 0 must fall back to the baseline rates")
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
		Overload: &OverloadConfig{},
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

// TestOverloadOffIsByteIdentical pins the regression gate the figures
// depend on: with Overload nil the scheduler path must produce exactly
// the tallies the legacy goroutine-per-device harness did, and no
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
	for _, d := range res.PerDevice {
		if d.SpeedGrade != 0 {
			t.Fatalf("homogeneous run reports a speed grade: %+v", d)
		}
	}
}

// BenchmarkSchedulerClaim is in ci.sh's zero-allocation gate: the
// per-device work a scheduler worker does to claim and parameterize the
// next device (atomic claim, speed grade, jitter draw) must stay
// allocation-free — it runs 100k times per fleet run.
func BenchmarkSchedulerClaim(b *testing.B) {
	cfg := Config{Devices: 1 << 30, SpeedGrades: []float64{1, 1.5, 0.75, 1.25}}
	var next atomic.Int64
	jr := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := int(next.Add(1)) - 1
		if d >= cfg.Devices {
			b.Fatal("claimed past the fleet")
		}
		_ = cfg.speedGrade(d)
		_ = jr.Uint64() % 1000
	}
}
