package experiments

import (
	"sort"

	"snip/internal/cloud"
	"snip/internal/memo"
	"snip/internal/pfi"
	"snip/internal/trace"
	"snip/internal/units"
)

// Fig9Result is the PFI trim curve of Fig. 9: starting from the full
// union of input fields, fields are eliminated least-important-first; the
// curve records the remaining selected bytes against the erroneous-output
// rate, and which category each dropped field came from. The paper's
// landmark: ≈1.2 kB of necessary fields (≈0.2% of the input bytes)
// predict 99% of outputs with 100% accuracy.
type Fig9Result struct {
	Game          string
	TotalInput    units.Size
	SelectedBytes units.Size
	SelectedFrac  float64
	Curve         []pfi.TrimPoint
	Final         pfi.Metrics
	// CategoryBytes is the per-category byte split of the surviving
	// necessary inputs (the Fig. 9 color coding).
	CategoryBytes map[trace.Category]units.Size
	Selection     memo.Selection
}

// Fig9PFITrimCurve runs PFI on one game's profile (AB Evolution in the
// paper) and reports the trim curve.
func Fig9PFITrimCurve(cfg Config, game string) (*Fig9Result, error) {
	prof, err := cfg.profile(game)
	if err != nil {
		return nil, err
	}
	res, err := pfi.Run(prof, cfg.PFI)
	if err != nil {
		return nil, err
	}
	out := &Fig9Result{
		Game:          game,
		TotalInput:    res.InputBytesTotal,
		SelectedBytes: res.SelectedBytes,
		Curve:         res.Curve,
		Final:         res.Final,
		CategoryBytes: res.Selection.CategoryBytes(),
		Selection:     res.Selection,
	}
	if res.InputBytesTotal > 0 {
		out.SelectedFrac = float64(res.SelectedBytes) / float64(res.InputBytesTotal)
	}
	// Present the curve in trim order (largest remaining width first).
	sort.SliceStable(out.Curve, func(i, j int) bool {
		return out.Curve[i].SelectedBytes > out.Curve[j].SelectedBytes
	})
	return out, nil
}

// BackendResult is the §VII-C cost discussion: what the device uploads,
// what the cloud crunches, and how far the table shrinks.
type BackendResult struct {
	Game string
	// EventLogSize is the device's events-only upload for one session.
	EventLogSize units.Size
	// FullProfileSize is what a naive client would have uploaded instead.
	FullProfileSize units.Size
	// ProfileRecords is the accumulated profile the cloud trains on.
	ProfileRecords int
	InputFields    int
	// CoreSeconds estimates the PFI search cost on a Xeon-class core.
	CoreSeconds float64
	// NaiveTableSize vs DeployedTableSize is the headline shrink
	// (100s of GBs → 100s of MBs in the paper).
	NaiveTableSize    units.Size
	DeployedTableSize units.Size
}

// BackendProfiling measures the profiling pipeline costs for one game.
func BackendProfiling(cfg Config, game string) (*BackendResult, error) {
	// One deployment-session upload.
	one, err := profileWithLog(game, cfg.DeploySeed, cfg)
	if err != nil {
		return nil, err
	}
	logSize, err := trace.EventsOnlyTransferSize(one.log)
	if err != nil {
		return nil, err
	}
	fullSize, err := trace.TransferSize(one.ds)
	if err != nil {
		return nil, err
	}
	// The accumulated multi-session profile and its table.
	table, prof, err := cfg.buildTable(game)
	if err != nil {
		return nil, err
	}
	fields := len(prof.InputFieldUniverse())
	naive := memo.BuildNaive(prof)
	return &BackendResult{
		Game:              game,
		EventLogSize:      logSize,
		FullProfileSize:   fullSize,
		ProfileRecords:    prof.Len(),
		InputFields:       fields,
		CoreSeconds:       cloud.BackendCost(prof.Len(), fields),
		NaiveTableSize:    naive.Size(),
		DeployedTableSize: table.Size(),
	}, nil
}

type sessionCapture struct {
	ds  *trace.Dataset
	log *trace.EventLog
}

func profileWithLog(game string, seed uint64, cfg Config) (*sessionCapture, error) {
	r, err := profileRun(game, seed, cfg)
	if err != nil {
		return nil, err
	}
	return &sessionCapture{ds: r.Dataset, log: r.EventLog}, nil
}
