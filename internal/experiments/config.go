// Package experiments regenerates every table and figure of the paper's
// characterization and evaluation sections (Figs. 2–4, 6–9, 11, 12 and
// Table I, plus the §VII-C backend-cost discussion). Each experiment is a
// pure function of its Config, returning structured results that
// internal/report renders and bench_test.go regenerates.
package experiments

import (
	"snip/internal/games"
	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/parallel"
	"snip/internal/pfi"
	"snip/internal/schemes"
	"snip/internal/trace"
	"snip/internal/units"
)

// Config fixes the workload scale and seeds shared by all experiments.
// Every fan-out (profile sessions, games in the per-game runners, the
// PFI search) runs runtime.GOMAXPROCS(0) workers, and every experiment
// returns identical results for every worker count.
type Config struct {
	// SessionSeconds is the simulated length of one play session.
	SessionSeconds int
	// ProfileSessions is how many training sessions feed the cloud
	// profiler before a table is built (continuous profiling volume).
	ProfileSessions int
	// DeploySeed is the session the deployed table is evaluated on
	// (distinct from every profile seed).
	DeploySeed uint64
	// ProfileSeedBase is the first profile-session seed.
	ProfileSeedBase uint64
	// PFI tunes the necessary-input selection.
	PFI pfi.Config
	// Obs, when non-nil, instruments the runners' sessions and PFI
	// searches. Write-only: every figure is byte-identical with Obs set
	// or nil (pinned by the determinism regression test).
	Obs *obs.Registry
	// Spans, when non-nil, additionally records distributed-tracing
	// spans from the runners' sessions. Write-only under the same
	// byte-identical contract as Obs.
	Spans *obs.SpanBuffer
}

// DefaultConfig returns the scale used throughout the repository: 45 s
// sessions, 8 profile sessions per game — small enough to run every
// figure in seconds, large enough for the published shape to emerge.
func DefaultConfig() Config {
	return Config{
		SessionSeconds:  45,
		ProfileSessions: 8,
		DeploySeed:      1,
		ProfileSeedBase: 0xA1,
		PFI:             pfi.DefaultConfig(),
	}
}

// Duration returns the session length as simulated time.
func (c Config) Duration() units.Time {
	return units.Time(c.SessionSeconds) * units.Second
}

// GameNames returns the seven games in the paper's complexity order.
func GameNames() []string { return games.Names() }

// profile builds the merged multi-session profile of one game: one
// worker per session seed, merged in seed order so the dataset is
// byte-identical to a serial replay.
func (c Config) profile(game string) (*trace.Dataset, error) {
	sessions, err := parallel.Map(0, c.ProfileSessions, func(i int) (*trace.Dataset, error) {
		r, err := schemes.Profile(game, c.ProfileSeedBase+uint64(i), c.Duration())
		if err != nil {
			return nil, err
		}
		return r.Dataset, nil
	})
	if err != nil {
		return nil, err
	}
	ds := &trace.Dataset{Game: game}
	for _, s := range sessions {
		ds.Merge(s)
	}
	return ds, nil
}

// buildTable profiles a game, runs PFI with the game's developer
// overrides (§V-B Option 1) and returns the deployable flat table, built
// as the cloud builds it, plus the profile.
func (c Config) buildTable(game string) (*memo.FlatTable, *trace.Dataset, error) {
	prof, err := c.profile(game)
	if err != nil {
		return nil, nil, err
	}
	pfiCfg := c.PFI
	if pfiCfg.Obs == nil {
		pfiCfg.Obs = c.Obs
	}
	pfiCfg.ForceInclude = games.ForceInclude(game, pfiCfg.ForceInclude)
	res, err := pfi.Run(prof, pfiCfg)
	if err != nil {
		return nil, nil, err
	}
	table, err := memo.BuildFlat(prof, res.Selection)
	if err != nil {
		return nil, nil, err
	}
	return table, prof, nil
}
