// Package parallel is the repository's bounded fan-out layer: every
// embarrassingly parallel loop (profiling sessions, per-game experiment
// runs, PFI permutation scoring, cloud batch replays) funnels through
// Map so that worker counts, ordering and error semantics are decided in
// exactly one place.
//
// The contract that makes parallelism safe here is determinism: Map
// preserves input ordering (results[i] always comes from items[i]) and
// returns the error of the LOWEST failing index — the same error a
// serial loop would have surfaced first — so a parallel run is
// byte-identical to a serial one, success or failure. Callers that need
// randomness derive one rng.Source per work item with Split BEFORE
// fanning out; no source is ever shared across goroutines.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkers returns the pool size used when a caller passes
// workers <= 0: runtime.GOMAXPROCS(0), which the Go runtime reads from
// the GOMAXPROCS environment variable.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// Normalize clamps a requested worker count to [1, n] for n work items,
// resolving non-positive requests through DefaultWorkers.
func Normalize(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(0..n-1) across a bounded pool and returns the results in
// input order. workers <= 0 selects DefaultWorkers(); workers == 1
// degenerates to a plain serial loop (no goroutines), which keeps
// single-worker runs trivially identical to the pre-parallel code.
//
// Error semantics are serial-equivalent: if any calls fail, Map returns
// the error of the lowest failing index together with a nil slice. All
// items still run — no work is cancelled — so the failing index set is
// deterministic and independent of goroutine scheduling.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	workers = Normalize(workers, n)
	m := metrics.Load()
	if workers == 1 {
		for i := 0; i < n; i++ {
			var start time.Time
			if m != nil {
				m.queued.Set(int64(n - i - 1))
				m.inFlight.Set(1)
				start = time.Now()
			}
			r, err := fn(i)
			if m != nil {
				m.observeTask(start, err)
				m.inFlight.Set(0)
			}
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var start time.Time
				if m != nil {
					m.queued.Set(max(int64(n)-next.Load(), 0))
					m.inFlight.Add(1)
					start = time.Now()
				}
				results[i], errs[i] = fn(i)
				if m != nil {
					m.observeTask(start, errs[i])
					m.inFlight.Add(-1)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
