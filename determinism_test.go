package snip_test

import (
	"reflect"
	"runtime"
	"testing"

	"snip"
	"snip/internal/experiments"
)

// TestProfileDeterministicAcrossWorkers is the parallelism contract for
// the public API: profiling with one worker and with many must yield the
// byte-identical merged dataset, because sessions are seeded up front and
// merged in seed order regardless of completion order. The worker count
// is GOMAXPROCS, restored on exit.
func TestProfileDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	profile := func(workers int) *snip.SessionProfile {
		t.Helper()
		runtime.GOMAXPROCS(workers)
		p, err := snip.Profile("Colorphun", snip.ProfileOptions{
			Sessions: 4, Duration: testDur,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	serial := profile(1)
	parallel := profile(8)
	if serial.Records() == 0 {
		t.Fatal("empty profile")
	}
	if !reflect.DeepEqual(serial.Dataset(), parallel.Dataset()) {
		t.Fatal("GOMAXPROCS=8 profile differs from GOMAXPROCS=1")
	}
}

// TestFig11DeterministicAcrossWorkers pins the experiment engine: the
// full scheme evaluation — profiling, the parallel PFI search and the
// per-game fan-out — must produce deep-equal results for every worker
// count. This is the regression test for the rng.Split pre-splitting
// discipline: if any stage consumed a shared RNG from inside a
// goroutine, results would depend on scheduling and this would flake.
// The worker count is GOMAXPROCS, restored on exit.
func TestFig11DeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(workers int) *experiments.Fig11Result {
		t.Helper()
		runtime.GOMAXPROCS(workers)
		cfg := experiments.DefaultConfig()
		cfg.SessionSeconds = 15
		cfg.ProfileSessions = 2
		r, err := experiments.Fig11Schemes(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial := run(1)
	parallel := run(8)
	if len(serial.Rows) == 0 {
		t.Fatal("no rows")
	}
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial.Rows {
			if !reflect.DeepEqual(serial.Rows[i], parallel.Rows[i]) {
				t.Errorf("game %s: GOMAXPROCS=8 row differs from GOMAXPROCS=1\n serial:   %+v\n parallel: %+v",
					serial.Rows[i].Game, serial.Rows[i], parallel.Rows[i])
			}
		}
		t.Fatal("Fig11Schemes is not worker-count invariant")
	}
}
