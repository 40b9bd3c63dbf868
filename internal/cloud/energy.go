package cloud

import (
	"fmt"
	"math"

	"snip/internal/energy"
	"snip/internal/obs"
	"snip/internal/units"
)

// Fleet energy attribution: the cloud half of the device-side energy
// ledger. Devices stamp their per-generation modeled-µJ slices onto the
// telemetry records; the aggregator rolls them into the same bounded
// per-game/per-generation structure the hit-rate signals use, and
// derives the energy analogue of the drift signal:
//
//   - Regression: the live-vs-predecessor delta in windowed *net*
//     energy per event, net = spend − short-circuit credit. A poisoned
//     table whose keys still match spends almost exactly what a healthy
//     one does (the mispredicted hits re-run the real handler), so raw
//     spend cannot see the regression — but those hits forfeit their
//     credit, and the net rate jumps.
//
// The rollups surface as JSON on GET /v1/fleetz, as per-game gauges on
// /v1/metrics, and as energy_regression_<game> checks on /v1/healthz.

// energyRegressionThreshold is the relative net-energy-per-event delta
// beyond which the live generation is judged regressed (costs more) or
// improved (a rollback or genuinely better table landed). Same 10% knee
// as the drift threshold — the two signals are meant to corroborate.
const energyRegressionThreshold = 0.10

// energyRegression returns the live generation's windowed net
// energy-per-event rate relative to its predecessor's:
// (live − prev) / |prev|, positive = the live generation costs more.
// ok is false until both windows hold energy-bearing records.
func (gt *gameTelemetry) energyRegression() (float64, bool) {
	live, okL := gt.gens[gt.liveGen]
	prev, okP := gt.gens[gt.prevGen]
	if !okL || !okP || gt.liveGen == gt.prevGen {
		return 0, false
	}
	lSum, lCnt := live.energyWindow.Totals()
	pSum, pCnt := prev.energyWindow.Totals()
	if lCnt == 0 || pCnt == 0 || pSum == 0 {
		return 0, false
	}
	liveRate := float64(lSum) / float64(lCnt)
	prevRate := float64(pSum) / float64(pCnt)
	return (liveRate - prevRate) / math.Abs(prevRate), true
}

// FleetzEnergy is one generation's energy rollup in the /v1/fleetz
// reply. The group fields follow the paper's Fig. 2 grouping; their sum
// equals EnergyUJ. SavedUJ is the short-circuit credit and is not part
// of EnergyUJ.
type FleetzEnergy struct {
	EnergyUJ  float64 `json:"energy_uj"`
	SensorsUJ float64 `json:"sensors_uj"`
	MemoryUJ  float64 `json:"memory_uj"`
	CPUUJ     float64 `json:"cpu_uj"`
	IPsUJ     float64 `json:"ips_uj"`

	LookupOverheadUJ float64 `json:"lookup_overhead_uj"`
	ShadowVerifyUJ   float64 `json:"shadow_verify_uj"`
	SavedUJ          float64 `json:"saved_uj"`
	WastedUJ         float64 `json:"wasted_uj"`

	// ElapsedUS is the simulated device-time attributed to this
	// generation; BatteryHours extrapolates its average power to a full
	// battery drain (the paper's measurement methodology).
	ElapsedUS    int64   `json:"elapsed_us"`
	BatteryHours float64 `json:"battery_hours,omitempty"`

	// EnergyPerEventUJ is cumulative spend per event;
	// NetPerEventUJ is the windowed net rate (spend − credit) the
	// regression signal reads.
	EnergyPerEventUJ float64 `json:"energy_per_event_uj"`
	NetPerEventUJ    float64 `json:"net_per_event_uj"`
	// NetHistory is the per-bucket (net µJ, events) series, oldest
	// first — the energy pane's sparkline.
	NetHistory []obs.WindowBucket `json:"net_history,omitempty"`
}

// energy returns the generation's energy rollup, or nil when none of
// its records carried energy: a fleet running without the ledger has
// no energy view.
func (g *genRollup) energy() *FleetzEnergy {
	if g.energyUJ == 0 && g.savedUJ == 0 {
		return nil
	}
	e := &FleetzEnergy{
		EnergyUJ:  g.energyUJ,
		SensorsUJ: g.groupUJ[0],
		MemoryUJ:  g.groupUJ[1],
		CPUUJ:     g.groupUJ[2],
		IPsUJ:     g.groupUJ[3],

		LookupOverheadUJ: g.lookupUJ,
		ShadowVerifyUJ:   g.shadowUJ,
		SavedUJ:          g.savedUJ,
		WastedUJ:         g.wastedUJ,

		ElapsedUS: g.elapsedUS,
		BatteryHours: energy.DefaultBattery().HoursToDrain(
			units.Energy(g.energyUJ), units.Time(g.elapsedUS)),
		NetHistory: g.energyWindow.Snapshot(),
	}
	if g.events > 0 {
		e.EnergyPerEventUJ = g.energyUJ / float64(g.events)
	}
	if sum, cnt := g.energyWindow.Totals(); cnt > 0 {
		e.NetPerEventUJ = float64(sum) / float64(cnt)
	}
	return e
}

// regressionVerdict returns the energy regression signal and its
// verdict: "steady", "regressed" (live costs more than its predecessor
// by more than the threshold) or "improved".
func (gt *gameTelemetry) regressionVerdict() (float64, string) {
	reg, ok := gt.energyRegression()
	switch {
	case !ok:
		return 0, "steady"
	case reg > energyRegressionThreshold:
		return reg, "regressed"
	case reg < -energyRegressionThreshold:
		return reg, "improved"
	}
	return reg, "steady"
}

// energyHealthChecks appends the per-game energy-regression verdicts to
// a /v1/healthz reply: a game whose live generation's windowed net
// energy per event exceeds its predecessor's by more than the threshold
// is degraded — the energy-domain corroboration of the drift check.
func (s *Service) energyHealthChecks(reply *HealthzReply) {
	a := s.tel
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, name := range a.gameNames("") {
		gt := a.games[name]
		reg, ok := gt.energyRegression()
		if !ok {
			continue
		}
		check := HealthCheck{
			Name: "energy_regression_" + name, OK: reg <= energyRegressionThreshold && gt.monotoneViolations == 0,
			Value: reg, Threshold: energyRegressionThreshold,
		}
		if !check.OK {
			check.Detail = fmt.Sprintf(
				"live generation spends %.1f%% more net energy per event than its predecessor (%d monotone violations)",
				100*reg, gt.monotoneViolations)
			reply.Status = "degraded"
		}
		reply.Checks = append(reply.Checks, check)
	}
}
