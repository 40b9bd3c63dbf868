package snip

import (
	"io"
	"time"

	"snip/internal/experiments"
	"snip/internal/report"
)

// ExperimentScale fixes the workload scale of the figure runners. Every
// fan-out inside them (games, profile sessions, the PFI search) runs
// runtime.GOMAXPROCS(0) workers; results are identical for every count.
type ExperimentScale struct {
	// SessionSeconds per simulated session (default 45).
	SessionSeconds int
	// ProfileSessions per game before a table is built (default 8).
	ProfileSessions int
}

// DefaultScale returns the repository's standard experiment scale.
func DefaultScale() ExperimentScale { return ExperimentScale{SessionSeconds: 45, ProfileSessions: 8} }

func (s ExperimentScale) config() experiments.Config {
	cfg := experiments.DefaultConfig()
	if s.SessionSeconds > 0 {
		cfg.SessionSeconds = s.SessionSeconds
	}
	if s.ProfileSessions > 0 {
		cfg.ProfileSessions = s.ProfileSessions
	}
	return cfg
}

// The figure runners regenerate each table/figure of the paper and write
// the rendered text to w. They return the structured result for callers
// that want the numbers.

// Fig2 regenerates the energy-breakdown characterization.
func Fig2(w io.Writer, s ExperimentScale) (*experiments.Fig2Result, error) {
	r, err := experiments.Fig2EnergyBreakdown(s.config())
	if err != nil {
		return nil, err
	}
	report.Fig2(w, r)
	return r, nil
}

// Fig3 regenerates the battery-drain characterization.
func Fig3(w io.Writer, s ExperimentScale) (*experiments.Fig3Result, error) {
	r, err := experiments.Fig3BatteryDrain(s.config())
	if err != nil {
		return nil, err
	}
	report.Fig3(w, r)
	return r, nil
}

// Fig4 regenerates the useless-event characterization.
func Fig4(w io.Writer, s ExperimentScale) (*experiments.Fig4Result, error) {
	r, err := experiments.Fig4UselessEvents(s.config())
	if err != nil {
		return nil, err
	}
	report.Fig4(w, r)
	return r, nil
}

// Fig6 regenerates the naive lookup-table blowup (AB Evolution).
func Fig6(w io.Writer, s ExperimentScale) (*experiments.Fig6Result, error) {
	r, err := experiments.Fig6NaiveTableSize(s.config(), "ABEvolution")
	if err != nil {
		return nil, err
	}
	report.Fig6(w, r)
	return r, nil
}

// Fig7 regenerates the input/output size characterization (AB Evolution).
func Fig7(w io.Writer, s ExperimentScale) (*experiments.Fig7Result, error) {
	r, err := experiments.Fig7InputOutputCDF(s.config(), "ABEvolution")
	if err != nil {
		return nil, err
	}
	report.Fig7(w, r)
	return r, nil
}

// Fig8 regenerates the In.Event-only table study (AB Evolution).
func Fig8(w io.Writer, s ExperimentScale) (*experiments.Fig8Result, error) {
	r, err := experiments.Fig8EventOnlyTable(s.config(), "ABEvolution")
	if err != nil {
		return nil, err
	}
	report.Fig8(w, r)
	return r, nil
}

// Fig9 regenerates the PFI trim curve (AB Evolution).
func Fig9(w io.Writer, s ExperimentScale) (*experiments.Fig9Result, error) {
	r, err := experiments.Fig9PFITrimCurve(s.config(), "ABEvolution")
	if err != nil {
		return nil, err
	}
	report.Fig9(w, r)
	return r, nil
}

// Fig11 regenerates the full scheme evaluation (all three panels).
func Fig11(w io.Writer, s ExperimentScale) (*experiments.Fig11Result, error) {
	r, err := experiments.Fig11Schemes(s.config())
	if err != nil {
		return nil, err
	}
	report.Fig11(w, r)
	return r, nil
}

// Fig12 regenerates the continuous-learning experiment.
func Fig12(w io.Writer, s ExperimentScale, epochs int) (*experiments.Fig12Result, error) {
	if epochs <= 0 {
		epochs = 12
	}
	r, err := experiments.Fig12ContinuousLearning(s.config(), "ABEvolution", epochs, 400)
	if err != nil {
		return nil, err
	}
	report.Fig12(w, r)
	return r, nil
}

// TableI regenerates the optimization-scope comparison.
func TableI(w io.Writer, s ExperimentScale) (*experiments.Table1Result, error) {
	r, err := experiments.Table1OptimizationScope(s.config(), "ABEvolution")
	if err != nil {
		return nil, err
	}
	report.Table1(w, r)
	return r, nil
}

// BackendCosts regenerates the §VII-C backend cost summary.
func BackendCosts(w io.Writer, s ExperimentScale) (*experiments.BackendResult, error) {
	r, err := experiments.BackendProfiling(s.config(), "ABEvolution")
	if err != nil {
		return nil, err
	}
	report.Backend(w, r)
	return r, nil
}

// AllFigures regenerates every table and figure in order, separated by
// blank lines. Expect a few minutes at default scale on one core.
func AllFigures(w io.Writer, s ExperimentScale) error {
	start := time.Now()
	steps := []func() error{
		func() error { _, err := Fig2(w, s); return err },
		func() error { _, err := Fig3(w, s); return err },
		func() error { _, err := Fig4(w, s); return err },
		func() error { _, err := Fig6(w, s); return err },
		func() error { _, err := Fig7(w, s); return err },
		func() error { _, err := Fig8(w, s); return err },
		func() error { _, err := Fig9(w, s); return err },
		func() error { _, err := Fig11(w, s); return err },
		func() error { _, err := Fig12(w, s, 12); return err },
		func() error { _, err := TableI(w, s); return err },
		func() error { _, err := BackendCosts(w, s); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
		io.WriteString(w, "\n")
	}
	_ = start
	return nil
}
