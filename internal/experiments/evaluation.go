package experiments

import (
	"snip/internal/parallel"
	"snip/internal/schemes"
	"snip/internal/units"
)

// profileRun is the shared baseline-with-trace session.
func profileRun(game string, seed uint64, cfg Config) (*schemes.Result, error) {
	return schemes.Run(schemes.Config{
		Game: game, Seed: seed, Duration: cfg.Duration(),
		Scheme: schemes.Baseline, CollectTrace: true, CollectEventLog: true,
	})
}

// Fig11Row is one game's evaluation across the compared schemes.
type Fig11Row struct {
	Game string
	// Saving is the fraction of baseline energy saved per scheme
	// (Fig. 11a); Baseline's entry is 0 by construction.
	Saving [schemes.NumKinds]float64
	// Coverage is the instruction-weighted fraction of execution each
	// scheme short-circuited (Fig. 11b).
	Coverage [schemes.NumKinds]float64
	// OverheadEnergyFrac is SNIP's lookup/compare energy as a fraction
	// of its total (Fig. 11c).
	OverheadEnergyFrac float64
	// CompareBytesPerEvent is the average necessary-input bytes compared
	// per event (Fig. 11c's "Comparisons × PFI Input Size").
	CompareBytesPerEvent float64
	// ExtraBatteryHours is SNIP's battery-life extension over baseline.
	ExtraBatteryHours float64
	// Errors summarizes SNIP's residual output-field errors.
	ErrTemp, ErrHistory, ErrExtern, PredictedFields int64
	TableSize                                       units.Size
	TableRows                                       int
}

// Fig11Result aggregates all games.
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11Schemes runs the full evaluation: per game, profile on the
// training seeds, build the PFI table, then run the deployment session
// under every scheme. Games fan out across workers; within a game the
// five schemes stay in comparison order because later schemes are
// measured against the baseline result. The game's SnipTable is shared
// across schemes safely: lookups are read-only and each session owns its
// cost accumulation.
func Fig11Schemes(cfg Config) (*Fig11Result, error) {
	rows, err := parallel.Map(0, len(GameNames()), func(i int) (*Fig11Row, error) {
		return fig11Game(cfg, GameNames()[i])
	})
	if err != nil {
		return nil, err
	}
	out := &Fig11Result{}
	for _, row := range rows {
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

func fig11Game(cfg Config, game string) (*Fig11Row, error) {
	table, _, err := cfg.buildTable(game)
	if err != nil {
		return nil, err
	}
	row := &Fig11Row{Game: game, TableSize: table.Size(), TableRows: table.Rows()}

	var baseline *schemes.Result
	for _, k := range schemes.Kinds() {
		r, err := schemes.Run(schemes.Config{
			Game: game, Seed: cfg.DeploySeed, Duration: cfg.Duration(),
			Scheme: k, Table: table, EvalCorrectness: k == schemes.SNIP,
		})
		if err != nil {
			return nil, err
		}
		if k == schemes.Baseline {
			baseline = r
		}
		row.Coverage[k] = r.CoverageFraction()
		if baseline != nil && baseline.Energy > 0 {
			row.Saving[k] = 1 - float64(r.Energy)/float64(baseline.Energy)
		}
		if k == schemes.SNIP {
			if r.Energy > 0 {
				row.OverheadEnergyFrac = float64(r.LookupEnergy) / float64(r.Energy)
			}
			if r.Events > 0 {
				row.CompareBytesPerEvent = float64(r.ComparedBytes) / float64(r.Events)
			}
			row.ExtraBatteryHours = r.BatteryHours() - baseline.BatteryHours()
			row.ErrTemp = r.Errors.ErrTemp
			row.ErrHistory = r.Errors.ErrHistory
			row.ErrExtern = r.Errors.ErrExtern
			row.PredictedFields = r.Errors.PredictedFields
		}
	}
	return row, nil
}

// AverageSaving returns the mean SNIP energy saving across games (the
// paper's 32% headline).
func (r *Fig11Result) AverageSaving() float64 {
	var sum float64
	for _, row := range r.Rows {
		sum += row.Saving[schemes.SNIP]
	}
	if len(r.Rows) == 0 {
		return 0
	}
	return sum / float64(len(r.Rows))
}

// AverageCoverage returns the mean SNIP coverage (the paper's 52%).
func (r *Fig11Result) AverageCoverage() float64 {
	var sum float64
	for _, row := range r.Rows {
		sum += row.Coverage[schemes.SNIP]
	}
	if len(r.Rows) == 0 {
		return 0
	}
	return sum / float64(len(r.Rows))
}

// Table1Result reproduces Table I: for the paper's example handler —
// interleaved CPU functions and IP invocations — which portion of the
// end-to-end work each scheme can short-circuit when the event recurs
// redundantly.
type Table1Result struct {
	Game string
	// Fractions of the handler chain's energy-weighted work each scheme
	// avoided on the deployment session.
	MaxCPUFrac, MaxIPFrac, SNIPFrac float64
}

// Table1OptimizationScope measures the per-scheme optimization scope on
// AB Evolution (the paper's example game): Max CPU can only reuse the
// register-level CPUFunc_i bodies, Max IP only repeated IP_i invocations,
// SNIP the whole chain.
func Table1OptimizationScope(cfg Config, game string) (*Table1Result, error) {
	table, _, err := cfg.buildTable(game)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{Game: game}
	for _, k := range []schemes.Kind{schemes.MaxCPU, schemes.MaxIP, schemes.SNIP} {
		r, err := schemes.Run(schemes.Config{
			Game: game, Seed: cfg.DeploySeed, Duration: cfg.Duration(),
			Scheme: k, Table: table,
		})
		if err != nil {
			return nil, err
		}
		switch k {
		case schemes.MaxCPU:
			res.MaxCPUFrac = r.CoverageFraction()
		case schemes.MaxIP:
			res.MaxIPFrac = r.CoverageFraction()
		case schemes.SNIP:
			res.SNIPFrac = r.CoverageFraction()
		}
	}
	return res, nil
}
