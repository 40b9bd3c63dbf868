package fleet

import (
	"sync"
	"sync/atomic"

	"snip/internal/cloud"
	"snip/internal/memo"
	"snip/internal/obs"
)

// GuardConfig enables the fleet's self-healing mispredict guard: a
// sampled fraction of memo hits also run the real handler on a cloned
// game and compare outputs. Mispredicts are tallied per table
// generation; when a generation's mispredict ratio crosses the
// threshold (with enough samples to mean something) the guard trips a
// circuit breaker — devices stop short-circuiting and execute every
// handler — and asks the shared table to roll back to the previous
// generation. If the rollback succeeds the breaker re-arms and serving
// resumes on the restored table; if there is nothing to roll back to,
// the breaker stays open, which is the fail-safe state (full execution
// is always correct, just not energy-efficient).
type GuardConfig struct {
	// ShadowSampleRate is the fraction of memo hits shadow-verified.
	// <= 0 disables the guard entirely.
	ShadowSampleRate float64 `json:"shadow_sample_rate"`
	// MaxMispredictRatio trips the breaker when a generation's
	// mispredicts/checks exceeds it. <= 0 uses DefaultGuardConfig's.
	MaxMispredictRatio float64 `json:"max_mispredict_ratio"`
	// MinShadowSamples is how many checks a generation needs before it
	// can be judged — the guard never trips on one unlucky sample.
	// <= 0 uses DefaultGuardConfig's.
	MinShadowSamples int64 `json:"min_shadow_samples"`
}

// DefaultGuardConfig returns the guard tuning used when fields are left
// zero: verify 5% of hits, trip past 2% mispredicts, judge only after
// 20 samples.
func DefaultGuardConfig() GuardConfig {
	return GuardConfig{ShadowSampleRate: 0.05, MaxMispredictRatio: 0.02, MinShadowSamples: 20}
}

// GuardReport is the guard's run-level summary.
type GuardReport struct {
	ShadowChecks int64 `json:"shadow_checks"`
	Mispredicts  int64 `json:"mispredicts"`
	// Trips counts breaker openings; Rollbacks successful table
	// restorations (a trip without a matching rollback means the breaker
	// had nothing to restore and stayed open).
	Trips     int64 `json:"trips"`
	Rollbacks int64 `json:"rollbacks"`
	// BreakerOpen is the breaker's final state: true means the run ended
	// with short-circuiting disabled.
	BreakerOpen bool `json:"breaker_open"`
	// TrippedGenerations lists the table generations judged bad.
	TrippedGenerations []int64 `json:"tripped_generations,omitempty"`
}

// MispredictRatio returns overall mispredicts per shadow check.
func (g GuardReport) MispredictRatio() float64 {
	if g.ShadowChecks == 0 {
		return 0
	}
	return float64(g.Mispredicts) / float64(g.ShadowChecks)
}

// genTally accumulates one table generation's shadow-verification
// evidence. tripped latches so a generation is judged at most once —
// after a rollback the displaced generation's tally keeps growing
// briefly (devices still hold its snapshot) but must not re-trip.
type genTally struct {
	checks      int64
	mispredicts int64
	tripped     bool
}

// guard is the coordinator-side mispredict guard state.
type guard struct {
	cfg    GuardConfig
	shared *memo.Shared
	client *cloud.Client
	ctl    *cloud.CallControl // the reports' simulated-time retry control
	game   string

	// open is read by every device on every event (breaker check), so it
	// is a lone atomic; everything else is mutex-guarded and touched only
	// on the sampled path.
	open atomic.Bool

	mu        sync.Mutex
	tallies   map[int64]*genTally
	checks    int64
	mispreds  int64
	trips     int64
	rollbacks int64
	tripped   []int64

	metChecks    *obs.Counter
	metMispreds  *obs.Counter
	metTrips     *obs.Counter
	metRollbacks *obs.Counter
}

// newGuard builds the guard, filling zero tuning fields from the
// defaults. Returns nil (guard disabled) when cfg is nil or the sample
// rate is zero.
func newGuard(cfg *GuardConfig, shared *memo.Shared, client *cloud.Client, ctl *cloud.CallControl, game string, reg *obs.Registry) *guard {
	if cfg == nil || cfg.ShadowSampleRate <= 0 {
		return nil
	}
	c := *cfg
	def := DefaultGuardConfig()
	if c.MaxMispredictRatio <= 0 {
		c.MaxMispredictRatio = def.MaxMispredictRatio
	}
	if c.MinShadowSamples <= 0 {
		c.MinShadowSamples = def.MinShadowSamples
	}
	return &guard{
		cfg: c, shared: shared, client: client, ctl: ctl, game: game,
		tallies:      make(map[int64]*genTally),
		metChecks:    reg.Counter("snip_fleet_guard_checks_total", "memo hits shadow-verified by the fleet guard"),
		metMispreds:  reg.Counter("snip_fleet_guard_mispredicts_total", "shadow-verified hits that served wrong outputs"),
		metTrips:     reg.Counter("snip_fleet_guard_trips_total", "circuit-breaker openings"),
		metRollbacks: reg.Counter("snip_fleet_table_rollbacks_total", "shared-table rollbacks triggered by the guard"),
	}
}

// isOpen reports the breaker state; nil-safe (a disabled guard never
// opens).
func (g *guard) isOpen() bool { return g != nil && g.open.Load() }

// observe folds one shadow-verification outcome for a table generation
// and trips the breaker when the generation's evidence crosses the
// threshold.
func (g *guard) observe(gen int64, mispredict bool) {
	g.mu.Lock()
	t := g.tallies[gen]
	if t == nil {
		t = &genTally{}
		g.tallies[gen] = t
	}
	t.checks++
	g.checks++
	g.metChecks.Inc()
	if mispredict {
		t.mispredicts++
		g.mispreds++
		g.metMispreds.Inc()
	}
	shouldTrip := !t.tripped && t.checks >= g.cfg.MinShadowSamples &&
		float64(t.mispredicts)/float64(t.checks) > g.cfg.MaxMispredictRatio
	if shouldTrip {
		t.tripped = true
		g.trip(gen)
	}
	g.mu.Unlock()
}

// trip (called with mu held) opens the breaker, reports the degradation
// to the cloud, and attempts the self-healing rollback. The breaker
// re-arms only when the bad generation was actually displaced — by our
// rollback, or by a swap that already replaced it.
func (g *guard) trip(gen int64) {
	g.trips++
	g.tripped = append(g.tripped, gen)
	g.metTrips.Inc()
	g.open.Store(true)
	g.report()

	if g.shared.Generation() != gen {
		// A newer publication already displaced the bad table; nothing to
		// roll back, serving it again is safe.
		g.open.Store(false)
		g.report()
		return
	}
	if _, ok := g.shared.Rollback(); ok {
		g.rollbacks++
		g.metRollbacks.Inc()
		g.open.Store(false)
		g.report()
		return
	}
	// No prior generation to restore (cold start, or the retained
	// snapshot was already consumed): stay open. Full execution is the
	// correct fail-safe; the next OTA swap publishes a fresh table and
	// onSwap re-arms the breaker for it.
}

// onSwap re-arms an open breaker after a fresh publication: the
// generation it opened on is no longer the one being served, and the new
// generation deserves its own (untripped) tally. Nil-safe, and a no-op
// while the breaker is closed.
func (g *guard) onSwap() {
	if g == nil || !g.open.Load() {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.open.Load() {
		g.open.Store(false)
		g.report()
	}
}

// report pushes the guard state to the cloud's /v1/guard endpoint so
// /v1/healthz reflects the degradation (and the recovery). Best-effort:
// a dead cloud must not stop the local defense. It runs under mu, so its
// retries back off on simulated time: a wall-clock wait here would stall
// every device's shadow check.
func (g *guard) report() {
	if g.client == nil {
		return
	}
	_ = g.client.ReportGuard(g.game, cloud.GuardStatus{
		BreakerOpen:  g.open.Load(),
		ShadowChecks: g.checks,
		Mispredicts:  g.mispreds,
		Trips:        g.trips,
		Rollbacks:    g.rollbacks,
		Generation:   g.shared.Generation(),
	}, g.ctl)
}

// snapshot returns the run-level report; nil-safe (nil when disabled).
func (g *guard) snapshot() *GuardReport {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return &GuardReport{
		ShadowChecks:       g.checks,
		Mispredicts:        g.mispreds,
		Trips:              g.trips,
		Rollbacks:          g.rollbacks,
		BreakerOpen:        g.open.Load(),
		TrippedGenerations: append([]int64(nil), g.tripped...),
	}
}
