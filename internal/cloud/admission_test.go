package cloud

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"snip/internal/obs"
	"snip/internal/pfi"
)

// shedServer answers 429 + Retry-After for the first sheds requests,
// then 200.
func shedServer(t *testing.T, sheds int32, retryAfterSecs int) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= sheds {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	return srv, &attempts
}

// TestOverloadRetryAfterHonoredWithJitter pins the client half of the
// 429 contract: with Retry429 set, each shed waits out the server's
// Retry-After plus an upward jitter of at most half the horizon, and
// the jitter source is the injectable per-call one (how the fleet
// makes backoff deterministic).
func TestOverloadRetryAfterHonoredWithJitter(t *testing.T) {
	const ra = 2 // seconds
	srv, attempts := shedServer(t, 2, ra)
	c := NewClient(srv.URL)
	c.Retry.Retry429 = true
	c.Retry.MaxAttempts = 5

	var sleeps []time.Duration
	var jitterArgs []int64
	const jitterVal = 7
	ctl := &CallControl{
		Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
		Jitter: func(n int64) int64 {
			jitterArgs = append(jitterArgs, n)
			return jitterVal
		},
	}
	resp, retries, shed, err := c.doCtl(http.MethodGet, srv.URL, "", nil, obs.SpanContext{}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final status %d", resp.StatusCode)
	}
	if shed != 2 || retries != 2 || attempts.Load() != 3 {
		t.Fatalf("shed=%d retries=%d attempts=%d, want 2/2/3", shed, retries, attempts.Load())
	}
	// Both backoffs honored the advertised horizon exactly: ra plus the
	// injected jitter, drawn from [0, ra/2+1).
	want := ra*time.Second + jitterVal
	if len(sleeps) != 2 || sleeps[0] != want || sleeps[1] != want {
		t.Fatalf("sleeps %v, want two of %v", sleeps, want)
	}
	wantArg := int64(ra*time.Second)/2 + 1
	for _, n := range jitterArgs {
		if n != wantArg {
			t.Fatalf("jitter bound %d, want %d (half the Retry-After horizon)", n, wantArg)
		}
	}
}

// TestOverloadBudgetExhaustionDrops pins the give-up half: a device
// whose retry budget runs dry under sustained shedding stops retrying
// and fails with an ErrShed-wrapped error — the outcome the fleet
// ledger counts as a shed batch, never as corruption.
func TestOverloadBudgetExhaustionDrops(t *testing.T) {
	srv, attempts := shedServer(t, 1<<30, 1) // sheds forever
	c := NewClient(srv.URL)
	c.Retry.Retry429 = true
	c.Retry.MaxAttempts = 10

	ctl := &CallControl{
		Budget: NewRetryBudget(2),
		Sleep:  func(time.Duration) {},
	}
	_, retries, shed, err := c.doCtl(http.MethodGet, srv.URL, "", nil, obs.SpanContext{}, ctl)
	if err == nil {
		t.Fatal("exhausted budget did not fail the call")
	}
	if !errors.Is(err, ErrShed) {
		t.Fatalf("error %v does not wrap ErrShed", err)
	}
	// 1 initial attempt + 2 budget-funded retries, each answered 429;
	// the third shed finds the budget empty and drops.
	if shed != 3 || retries != 2 || attempts.Load() != 3 {
		t.Fatalf("shed=%d retries=%d attempts=%d, want 3/2/3", shed, retries, attempts.Load())
	}
	if ctl.Budget.Tokens() != 0 || ctl.Budget.Allow() {
		t.Fatalf("budget left %v, want 0 and no further retry", ctl.Budget.Tokens())
	}
}

// TestOverloadPriorityClasses pins the shedding order: guard is
// admitted at any occupancy, telemetry survives until near saturation,
// bulk sheds first.
func TestOverloadPriorityClasses(t *testing.T) {
	a := newAdmission(64, QuotaConfig{}, obs.NewRegistry())
	cases := []struct {
		pri   Priority
		occ   float64
		allow bool
	}{
		{PriorityGuard, 0, true},
		{PriorityGuard, bulkShedOccupancy, true},
		{PriorityGuard, 1.0, true}, // never shed, even saturated
		{PriorityTelemetry, bulkShedOccupancy, true},
		{PriorityTelemetry, telemetryShedOccupancy - 0.01, true},
		{PriorityTelemetry, telemetryShedOccupancy, false},
		{PriorityBulk, bulkShedOccupancy - 0.01, true},
		{PriorityBulk, bulkShedOccupancy, false},
		{PriorityBulk, 1.0, false},
	}
	for i, tc := range cases {
		dec := a.decide(tc.pri, "Colorphun", tc.occ)
		if dec.allow != tc.allow {
			t.Errorf("case %d: %s at occupancy %.2f: allow=%v, want %v",
				i, tc.pri, tc.occ, dec.allow, tc.allow)
		}
		if !dec.allow && dec.retryAfter < time.Second {
			t.Errorf("case %d: shed without a usable Retry-After (%v)", i, dec.retryAfter)
		}
	}

	// The ledger keeps offered = accepted + shed + dropped per class for
	// any mix of outcomes.
	for pri, statuses := range map[Priority][]int{
		PriorityGuard:     {200, 200, 503},
		PriorityTelemetry: {200, 429},
		PriorityBulk:      {200, 429, 429, 400, 500},
	} {
		for _, st := range statuses {
			a.account(pri, st)
		}
		l := &a.classes[pri]
		if l.offered.Value() != l.accepted.Value()+l.shed.Value()+l.dropped.Value() {
			t.Errorf("%s ledger broken: offered=%d accepted=%d shed=%d dropped=%d",
				pri, l.offered.Value(), l.accepted.Value(), l.shed.Value(), l.dropped.Value())
		}
	}
	if got := a.classes[PriorityGuard].shed.Value(); got != 0 {
		t.Errorf("guard class shed %d requests", got)
	}
	if got := a.classes[PriorityBulk].shed.Value(); got != 2 {
		t.Errorf("bulk shed %d, want 2", got)
	}
}

// TestQuotaPerGame drives the token bucket on an injected clock: each
// game has its own bucket, refill follows the configured rate, and the
// Retry-After horizon is clamped to [1s, 8s].
func TestQuotaPerGame(t *testing.T) {
	now := time.Unix(1000, 0)
	mk := func(rate, burst float64) *admission {
		a := newAdmission(64, QuotaConfig{RatePerSec: rate, Burst: burst}, obs.NewRegistry())
		a.now = func() time.Time { return now }
		return a
	}

	a := mk(2, 2)
	steps := []struct {
		game    string
		advance time.Duration
		ok      bool
		wait    time.Duration
	}{
		{"A", 0, true, 0},
		{"A", 0, true, 0},
		{"A", 0, false, time.Second}, // deficit 1 token at 2/s = 500ms, clamped up to 1s
		{"B", 0, true, 0},            // B's bucket is untouched by A's exhaustion
		{"B", 0, true, 0},
		{"B", 0, false, time.Second},
		{"A", 500 * time.Millisecond, true, 0}, // refill: 0.5s x 2/s = 1 token
		{"A", 0, false, time.Second},
	}
	for i, st := range steps {
		now = now.Add(st.advance)
		ok, wait := a.takeToken(st.game)
		if ok != st.ok || wait != st.wait {
			t.Fatalf("step %d (%s): ok=%v wait=%v, want %v/%v", i, st.game, ok, wait, st.ok, st.wait)
		}
	}
	if a.buckets["A"].shed != 2 || a.buckets["B"].shed != 1 {
		t.Fatalf("per-game shed counters A=%d B=%d, want 2/1", a.buckets["A"].shed, a.buckets["B"].shed)
	}

	// A slow quota's refill horizon is clamped to 8s so shed clients
	// never park for minutes.
	slow := mk(0.1, 0.1)
	if ok, wait := slow.takeToken("A"); ok || wait != 8*time.Second {
		t.Fatalf("slow quota: ok=%v wait=%v, want shed with 8s horizon", ok, wait)
	}
	// Burst defaults to the rate when unset.
	if b := mk(3, 0); b.quota.Burst != 3 {
		t.Fatalf("default burst %v, want 3", b.quota.Burst)
	}
}

// TestQuotaShedsOverHTTP is the end-to-end slice: with a near-zero
// quota, the second bulk request is shed with 429 + Retry-After while
// guard-class probes keep landing, and /v1/overloadz shows it.
func TestQuotaShedsOverHTTP(t *testing.T) {
	svc := NewServiceWithOptions(pfi.DefaultConfig(), ServiceOptions{
		Quota: QuotaConfig{RatePerSec: 0.001, Burst: 1},
	})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	// First bulk request takes the lone burst token (the rebuild itself
	// 404s — no profile — but it was admitted); the second is shed.
	resp, _ := post(t, srv.URL+"/v1/rebuild?game=Colorphun", nil)
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatalf("first bulk request shed with a full burst bucket")
	}
	resp, body := post(t, srv.URL+"/v1/rebuild?game=Colorphun", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second bulk request: status %d body %q, want 429", resp.StatusCode, body)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 8 {
		t.Fatalf("Retry-After %q, want whole seconds in [1, 8]", resp.Header.Get("Retry-After"))
	}

	// Guard traffic still lands (degraded is fine; shed is not).
	resp, _ = get(t, srv.URL+"/v1/healthz")
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("guard-class healthz was shed")
	}

	oz := svc.Overloadz()
	if oz.QuotaShed != 1 {
		t.Fatalf("quota shed %d, want 1", oz.QuotaShed)
	}
	for _, c := range oz.Classes {
		if c.Offered != c.Accepted+c.Shed+c.Dropped {
			t.Fatalf("class %s ledger broken: %+v", c.Class, c)
		}
		switch c.Class {
		case "guard":
			if c.Shed != 0 {
				t.Fatalf("guard class shed %d requests", c.Shed)
			}
		case "bulk":
			if c.Shed != 1 || c.Offered != 2 {
				t.Fatalf("bulk class %+v, want offered=2 shed=1", c)
			}
		}
	}
	if len(oz.Quotas) != 1 || oz.Quotas[0].Game != "Colorphun" || oz.Quotas[0].Shed != 1 {
		t.Fatalf("quota rows %+v", oz.Quotas)
	}
}

// BenchmarkTokenBucketTake is in ci.sh's zero-allocation gate: the
// admission fast path runs on every bulk ingest request.
func BenchmarkTokenBucketTake(b *testing.B) {
	a := newAdmission(64, QuotaConfig{RatePerSec: 1e12, Burst: 1e12}, obs.NewRegistry())
	a.takeToken("Colorphun") // create the bucket outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.takeToken("Colorphun")
	}
}
