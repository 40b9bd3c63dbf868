package experiments

import (
	"testing"

	"snip/internal/obs"
)

// The instrumentation-overhead pair: the Fig 4 runner (baseline sessions
// for every game with full trace collection — the heaviest
// characterization path) with and without a live registry attached.
// EXPERIMENTS.md records the measured delta; the budget is <3%.

func benchFig4Config() Config {
	cfg := DefaultConfig()
	cfg.SessionSeconds = 15
	cfg.ProfileSessions = 2
	return cfg
}

func BenchmarkFig4Bare(b *testing.B) {
	cfg := benchFig4Config()
	for i := 0; i < b.N; i++ {
		if _, err := Fig4UselessEvents(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Instrumented(b *testing.B) {
	cfg := benchFig4Config()
	cfg.Obs = obs.NewRegistry()
	for i := 0; i < b.N; i++ {
		if _, err := Fig4UselessEvents(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Traced adds the full tracing stack on top of the
// instrumented run: span ring and histogram exemplars both live. EXPERIMENTS.md records the delta vs Bare; the
// whole observability stack shares the <3% budget.
func BenchmarkFig4Traced(b *testing.B) {
	cfg := benchFig4Config()
	cfg.Obs = obs.NewRegistry()
	cfg.Spans = obs.NewSpanBuffer(obs.DefaultSpanCapacity)
	for i := 0; i < b.N; i++ {
		if _, err := Fig4UselessEvents(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
