package fleet

import (
	"runtime"
	"time"

	"snip/internal/cloud"
	"snip/internal/rng"
)

// The shared scheduler: a fixed worker pool claims device indexes off an
// atomic counter and plays each device to completion, instead of one
// goroutine (and stack, and timer set) per device. At fleetbench scale
// the difference is what makes -devices 100000 run on one box: the
// harness holds ~GOMAXPROCS×2 goroutines and a pooled game instance per
// worker, so the bottleneck under overload is the serving stack being
// tested, not the harness testing it.
//
// Determinism is unchanged: a device's tallies depend only on (game,
// seed), games.Game.Reset rebuilds the store and RNG from scratch (so a
// pooled instance is byte-identical to a fresh one), and which worker
// runs which device affects only wall-clock interleaving — the same
// property the goroutine-per-device layout already relied on.

// PerDeviceDetailMax bounds the fleet size for which Run retains
// per-device results (Result.PerDevice) and per-device health rows
// (HealthSnapshot.Devices). Beyond it the run reports aggregates only:
// at 100k devices the per-device JSON would dwarf the figures it
// carries. Aggregate tallies are identical either way.
const PerDeviceDetailMax = 4096

// deviceRetryBudget is each device's 429-retry token budget for the
// whole run; nothing refills it.
const deviceRetryBudget = 8

// overloadJitterSalt seeds each device's private backoff-jitter stream;
// XORed with SeedBase+device so streams never collide with session or
// shadow-guard RNG.
const overloadJitterSalt = 0x4F564C4444455649 // "OVLDDEVI"

// workerCount sizes the pool: explicit Config.Workers, else twice
// GOMAXPROCS (the devices block on in-process HTTP, so modest
// oversubscription keeps cores busy), never more than the devices.
func workerCount(cfg Config) int {
	w := cfg.Workers
	if w <= 0 {
		w = 2 * runtime.GOMAXPROCS(0)
	}
	if w > cfg.Devices {
		w = cfg.Devices
	}
	return w
}

// callControl builds a device's per-call backpressure control under the
// overload contract every run with a client speaks: 429s are retryable
// (Run gives the shared cloud.Client Retry429), each device carries a
// fixed retry budget, and backoff runs on simulated time (an atomic
// virtual-nanosecond sum, reported as Result.BackoffNS) with a
// per-device pre-split jitter RNG, so faulted runs stay deterministic
// and never wall-clock stall the harness. A clean run never consults
// it: no 429 and no transient failure means no retry. Nil without a
// client.
func (co *coordinator) callControl(id int) *cloud.CallControl {
	cfg := co.cfg
	if cfg.Client == nil {
		return nil
	}
	jr := rng.New((cfg.SeedBase + uint64(id)) ^ overloadJitterSalt)
	return &cloud.CallControl{
		Budget: cloud.NewRetryBudget(deviceRetryBudget),
		Sleep: func(d time.Duration) {
			if d > 0 {
				co.backoffNS.Add(int64(d))
			}
		},
		Jitter: func(n int64) int64 {
			if n <= 0 {
				return 0
			}
			return int64(jr.Uint64() % uint64(n))
		},
	}
}

// speedGrade returns device id's SoC speed grade: SpeedGrades cycled by
// id, 1.0 (homogeneous) when unset.
func (cfg Config) speedGrade(id int) float64 {
	if len(cfg.SpeedGrades) == 0 {
		return 1
	}
	g := cfg.SpeedGrades[id%len(cfg.SpeedGrades)]
	if g <= 0 {
		return 1
	}
	return g
}
