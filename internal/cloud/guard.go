package cloud

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"snip/internal/obs"
)

// GuardStatus is a fleet's mispredict-guard state as reported to the
// cloud at POST /v1/guard. The cloud keeps the latest report per game
// and folds it into /v1/healthz: an open breaker means devices are
// executing every handler — correct but burning the energy SNIP exists
// to save — so the service reports itself degraded until the fleet
// reports the breaker closed again (rollback done, serving resumed).
type GuardStatus struct {
	// BreakerOpen is true while devices have short-circuiting disabled.
	BreakerOpen bool `json:"breaker_open"`
	// ShadowChecks / Mispredicts are the fleet's cumulative guard tallies.
	ShadowChecks int64 `json:"shadow_checks"`
	Mispredicts  int64 `json:"mispredicts"`
	// Trips / Rollbacks count breaker openings and successful table
	// restorations.
	Trips     int64 `json:"trips"`
	Rollbacks int64 `json:"rollbacks"`
	// Generation is the table generation the fleet is serving.
	Generation int64 `json:"generation"`
}

// MispredictRatio returns mispredicts per shadow check (0 when none).
func (g GuardStatus) MispredictRatio() float64 {
	if g.ShadowChecks == 0 {
		return 0
	}
	return float64(g.Mispredicts) / float64(g.ShadowChecks)
}

// handleGuard ingests a fleet's guard report (JSON body, ?game=G).
func (s *Service) handleGuard(w http.ResponseWriter, r *http.Request) {
	game, ok := gameParam(w, r)
	if !ok {
		return
	}
	var st GuardStatus
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&st); err != nil {
		http.Error(w, "bad guard status: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.guards[game] = st
	s.mu.Unlock()
	if s.log != nil {
		s.log.Info("guard report", "game", game,
			"breaker_open", st.BreakerOpen, "trips", st.Trips,
			"rollbacks", st.Rollbacks, "generation", st.Generation)
	}
	fmt.Fprintln(w, "ok")
}

// ReportGuard pushes a fleet's guard status to the cloud. ctl carries
// the caller's retry sleep and jitter through the retry loop (see
// CallControl; nil is fine).
func (c *Client) ReportGuard(game string, st GuardStatus, ctl *CallControl) error {
	body, err := json.Marshal(st)
	if err != nil {
		return err
	}
	u := c.endpoint("/v1/guard", url.Values{"game": {game}})
	resp, _, _, err := c.doCtl(http.MethodPost, u, "application/json", body, obs.SpanContext{}, ctl)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return errFromResponse(resp)
}
