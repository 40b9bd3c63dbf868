package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"snip/internal/cloud"
	"snip/internal/memo"
	"snip/internal/obs"
)

// TestHealthzDegradationCycle drives the full breaker lifecycle over
// HTTP: a real fleet guard trips on a bad first generation (nothing to
// roll back to, so the breaker stays open), the cloud's /v1/healthz
// flips to 503 with a failing guard_breaker_<game> check, an OTA swap
// re-arms the breaker, and healthz returns to 200.
func TestHealthzDegradationCycle(t *testing.T) {
	_, srv, client, table := bootCloud(t)

	fetchHealth := func() (int, map[string]bool) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply struct {
			Status string `json:"status"`
			Checks []struct {
				Name string `json:"name"`
				OK   bool   `json:"ok"`
			} `json:"checks"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		checks := make(map[string]bool, len(reply.Checks))
		for _, c := range reply.Checks {
			checks[c.Name] = c.OK
		}
		return resp.StatusCode, checks
	}

	// Healthy baseline: 200, no guard check yet (no fleet has reported).
	code, checks := fetchHealth()
	if code != http.StatusOK {
		t.Fatalf("baseline healthz %d, want 200", code)
	}
	if _, ok := checks["guard_breaker_"+testGame]; ok {
		t.Fatal("guard check present before any guard report")
	}

	// A guard watching generation 1 (the only publication — no rollback
	// target) accumulates mispredict evidence and trips: the breaker
	// stays open, and the degradation is reported to the cloud.
	shared := memo.NewShared(table)
	g := newGuard(aggressiveGuard(), shared, client, nil, testGame, obs.NewRegistry())
	for i := int64(0); i < g.cfg.MinShadowSamples; i++ {
		g.observe(1, true)
	}
	if !g.isOpen() {
		t.Fatal("guard did not trip on pure mispredict evidence")
	}
	code, checks = fetchHealth()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d with an open breaker, want 503", code)
	}
	if ok, present := checks["guard_breaker_"+testGame]; !present || ok {
		t.Fatalf("guard check after trip: present=%v ok=%v, want failing", present, ok)
	}

	// A fresh OTA publication displaces the bad generation; onSwap
	// re-arms the breaker and reports recovery — healthz heals to 200.
	shared.Swap(table)
	g.onSwap()
	if g.isOpen() {
		t.Fatal("breaker still open after the re-arming swap")
	}
	code, checks = fetchHealth()
	if code != http.StatusOK {
		t.Fatalf("healthz %d after recovery, want 200", code)
	}
	if ok := checks["guard_breaker_"+testGame]; !ok {
		t.Fatal("guard check still failing after recovery")
	}
}

// TestGuardReportBacksOffOnSimulatedTime: the guard reports under its
// own lock, so a report the cloud answers 503 must retry on simulated
// time, booked to the run's backoff, and still reach /v1/healthz.
func TestGuardReportBacksOffOnSimulatedTime(t *testing.T) {
	svc, _, _, table := bootCloud(t)
	srv := httptest.NewServer(failFirst(svc.Handler(), "/v1/guard"))
	t.Cleanup(srv.Close)
	co := &coordinator{cfg: Config{Client: cloud.NewClient(srv.URL)}}
	g := newGuard(aggressiveGuard(), memo.NewShared(table), co.cfg.Client, co.guardControl(), testGame, obs.NewRegistry())
	for i := int64(0); i < g.cfg.MinShadowSamples; i++ {
		g.observe(1, true)
	}
	if !g.isOpen() {
		t.Fatal("guard did not trip on pure mispredict evidence")
	}
	if co.backoffNS.Load() <= 0 {
		t.Fatal("the retried guard report booked no simulated backoff")
	}
	for _, c := range svc.Healthz().Checks {
		if c.Name == "guard_breaker_"+testGame {
			if c.OK {
				t.Fatal("guard check passing after the breaker opened")
			}
			return
		}
	}
	t.Fatal("the retried guard report never reached the cloud")
}
