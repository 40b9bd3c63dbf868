package experiments

import (
	"snip/internal/cloud"
	"snip/internal/schemes"
	"snip/internal/stats"
)

// Fig12Epoch is one point of the continuous-learning curve.
type Fig12Epoch struct {
	Epoch int
	// ErrorRate is the fraction of erroneous output fields among the
	// fields SNIP served from the table during this epoch's session.
	ErrorRate float64
	// Coverage is the session's short-circuit coverage.
	Coverage float64
	// ProfileRecords is the profile size the table was trained on.
	ProfileRecords int
}

// Fig12Result is the continuous-learning experiment of Fig. 12: with an
// artificially insufficient initial profile, early sessions short-circuit
// erroneously; as each session's events reach the cloud and PFI retrains,
// the error rate collapses (paper: ≈40% → <0.1% within ~40 epochs).
type Fig12Result struct {
	Game   string
	Epochs []Fig12Epoch
}

// Fig12ContinuousLearning plays `epochs` sessions of one game. Each epoch
// evaluates SNIP with the table built from all previous epochs' uploads,
// then uploads the session and retrains.
func Fig12ContinuousLearning(cfg Config, game string, epochs, initialRecords int) (*Fig12Result, error) {
	learner := cloud.NewLearner(game, cfg.PFI, initialRecords)
	out := &Fig12Result{Game: game}

	// Epoch 0: bootstrap the (starved) profile from the first session.
	first, err := profileRun(game, cfg.ProfileSeedBase, cfg)
	if err != nil {
		return nil, err
	}
	update, err := learner.Epoch(first.Dataset)
	if err != nil {
		return nil, err
	}

	for e := 1; e <= epochs; e++ {
		seed := cfg.ProfileSeedBase + uint64(e)
		r, err := schemes.Run(schemes.Config{
			Game: game, Seed: seed, Duration: cfg.Duration(),
			Scheme: schemes.SNIP, Table: update.Table,
			EvalCorrectness: true,
		})
		if err != nil {
			return nil, err
		}
		out.Epochs = append(out.Epochs, Fig12Epoch{
			Epoch:          e,
			ErrorRate:      r.Errors.FieldErrorRate(),
			Coverage:       r.CoverageFraction(),
			ProfileRecords: update.ProfileRecords,
		})
		// Upload this session; retrain for the next epoch. The SNIP run
		// above may have diverged state-wise after erroneous applies, so
		// the upload replays the session baseline-style, as the cloud
		// emulator does.
		ground, err := profileRun(game, seed, cfg)
		if err != nil {
			return nil, err
		}
		update, err = learner.Epoch(ground.Dataset)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Table renders the error-rate decay.
func (r *Fig12Result) Table() *stats.Table {
	t := &stats.Table{Title: "Fig 12: continuous learning (" + r.Game + ")", XName: "epoch"}
	er := &stats.Series{Name: "% erroneous output fields"}
	cov := &stats.Series{Name: "% coverage"}
	for _, e := range r.Epochs {
		label := "e" + itoa(e.Epoch)
		er.Append(label, 100*e.ErrorRate)
		cov.Append(label, 100*e.Coverage)
	}
	t.AddSeries(er)
	t.AddSeries(cov)
	return t
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
