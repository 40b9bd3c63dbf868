package experiments

import (
	"snip/internal/energy"
	"snip/internal/parallel"
	"snip/internal/schemes"
	"snip/internal/stats"
)

// Fig2Result is the per-game energy breakdown of Fig. 2: the fraction of
// total SoC energy consumed by sensors, memory, CPU and IPs. The paper's
// observation: sensors+memory stay under 10%, CPU takes 40–60%, IPs the
// rest.
type Fig2Result struct {
	Games  []string
	Shares [][energy.NumGroups]float64 // per game, in group order
}

// Fig2EnergyBreakdown runs a baseline session per game (one worker per
// game) and measures the component-group energy split.
func Fig2EnergyBreakdown(cfg Config) (*Fig2Result, error) {
	games := GameNames()
	runs, err := parallel.Map(0, len(games), func(i int) (*schemes.Result, error) {
		return schemes.Run(schemes.Config{
			Game: games[i], Seed: cfg.DeploySeed, Duration: cfg.Duration(), Scheme: schemes.Baseline,
			Obs: cfg.Obs, Spans: cfg.Spans,
		})
	})
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{}
	for i, r := range runs {
		res.Games = append(res.Games, games[i])
		res.Shares = append(res.Shares, r.Breakdown)
	}
	return res, nil
}

// Table converts the result into labelled series (one per group).
func (r *Fig2Result) Table() *stats.Table {
	t := &stats.Table{Title: "Fig 2: normalized energy breakdown", XName: "game"}
	for gi := 0; gi < energy.NumGroups; gi++ {
		s := &stats.Series{Name: energy.Group(gi).String()}
		for i, g := range r.Games {
			s.Append(g, r.Shares[i][gi])
		}
		t.AddSeries(s)
	}
	return t
}

// Fig3Result is the battery-drain characterization of Fig. 3: hours to
// drain a full 3450 mAh battery per game, plus the idle-phone reference.
type Fig3Result struct {
	Games     []string
	Hours     []float64
	IdleHours float64
}

// Fig3BatteryDrain measures each game's average power draw (one worker
// per game) and extrapolates to a full battery drain, the paper's
// methodology.
func Fig3BatteryDrain(cfg Config) (*Fig3Result, error) {
	games := GameNames()
	hours, err := parallel.Map(0, len(games), func(i int) (float64, error) {
		r, err := schemes.Run(schemes.Config{
			Game: games[i], Seed: cfg.DeploySeed, Duration: cfg.Duration(), Scheme: schemes.Baseline,
		})
		if err != nil {
			return 0, err
		}
		return r.BatteryHours(), nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{IdleHours: schemes.IdlePhoneHours()}
	for i, h := range hours {
		res.Games = append(res.Games, games[i])
		res.Hours = append(res.Hours, h)
	}
	return res, nil
}

// Table converts the result into a labelled series.
func (r *Fig3Result) Table() *stats.Table {
	t := &stats.Table{Title: "Fig 3: battery drain (hours, 3450 mAh)", XName: "game"}
	s := &stats.Series{Name: "hours"}
	s.Append("IdlePhone", r.IdleHours)
	for i, g := range r.Games {
		s.Append(g, r.Hours[i])
	}
	t.AddSeries(s)
	return t
}

// Fig4Result is the useless-event characterization of Fig. 4: the
// fraction of events that changed no game state, and the fraction of
// battery energy wasted processing them.
type Fig4Result struct {
	Games         []string
	UselessEvents []float64
	WastedEnergy  []float64
	// Repeated / Redundant are the §I statistics over user-gesture
	// events: exact input repeats (2–5% in the paper) and exact output
	// repeats (17–43%).
	Repeated  []float64
	Redundant []float64
}

// Fig4UselessEvents runs baseline sessions with ground-truth state-change
// tracking, one worker per game.
func Fig4UselessEvents(cfg Config) (*Fig4Result, error) {
	games := GameNames()
	runs, err := parallel.Map(0, len(games), func(i int) (*schemes.Result, error) {
		return schemes.Run(schemes.Config{
			Game: games[i], Seed: cfg.DeploySeed, Duration: cfg.Duration(),
			Scheme: schemes.Baseline, CollectTrace: true, CollectEventLog: true,
			Obs: cfg.Obs, Spans: cfg.Spans,
		})
	})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{}
	for i, r := range runs {
		res.Games = append(res.Games, games[i])
		res.UselessEvents = append(res.UselessEvents, r.UselessFraction())
		res.WastedEnergy = append(res.WastedEnergy, float64(r.UselessEnergy)/float64(r.Energy))
		user := r.Dataset.FilterTypes("vsync")
		res.Repeated = append(res.Repeated, user.RepeatedFraction())
		res.Redundant = append(res.Redundant, user.RedundantFraction())
	}
	return res, nil
}

// Table converts the result into labelled series.
func (r *Fig4Result) Table() *stats.Table {
	t := &stats.Table{Title: "Fig 4: useless events and wasted energy", XName: "game"}
	ue := &stats.Series{Name: "% useless events"}
	we := &stats.Series{Name: "% energy wasted"}
	for i, g := range r.Games {
		ue.Append(g, 100*r.UselessEvents[i])
		we.Append(g, 100*r.WastedEnergy[i])
	}
	t.AddSeries(ue)
	t.AddSeries(we)
	return t
}
