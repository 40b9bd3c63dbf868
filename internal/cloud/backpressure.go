package cloud

import (
	"errors"
	"net/http"
	"strconv"
	"time"
)

// Client-side half of the overload contract: when the cloud sheds with
// 429 + Retry-After, a well-behaved device backs off for the advertised
// horizon (plus jitter, so a synchronized fleet desynchronizes) and
// bounds its persistence with a fixed retry budget.
// Without the budget, a fleet of devices all retrying shed batches is
// itself the overload; with it, sustained shedding converges to each
// device dropping its batch after a bounded number of attempts and
// counting the loss honestly.

// ErrShed marks an upload that the cloud deliberately shed (HTTP 429)
// and the client gave up on — either the retry budget ran out or every
// attempt was answered 429. Callers distinguish it from corruption or
// network failure with errors.Is.
var ErrShed = errors.New("shed by cloud admission control")

// RetryBudget bounds a device's 429-driven retries: a retry consumes
// one token, and nothing refills it. A device that is being persistently
// shed runs dry and starts dropping instead of hammering. Not safe for
// concurrent use — each device owns its budget and the fleet scheduler
// runs one device on one worker at a time.
type RetryBudget struct {
	tokens int
}

// NewRetryBudget returns a budget holding tokens retries.
func NewRetryBudget(tokens int) *RetryBudget {
	return &RetryBudget{tokens: tokens}
}

// Allow consumes one token for a retry; false means the budget is
// exhausted and the caller must stop retrying.
func (b *RetryBudget) Allow() bool {
	if b == nil {
		return true
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the remaining budget (for tests and tallies).
func (b *RetryBudget) Tokens() int {
	if b == nil {
		return 0
	}
	return b.tokens
}

// CallControl carries per-call backpressure state through the client's
// retry loop. The Client is shared fleet-wide, so anything per-device —
// the retry budget, the deterministic jitter stream, the sim-time sleep
// — rides the call instead of the client. Nil fields fall back to the
// process defaults (no budget, math/rand jitter, wall-clock sleep).
type CallControl struct {
	// Budget, when non-nil, gates 429 retries; exhaustion makes the call
	// fail immediately with an ErrShed-wrapped error.
	Budget *RetryBudget
	// Sleep replaces time.Sleep for backoff waits. The fleet harness
	// installs a sim-time hook that accumulates virtual nanoseconds, so
	// a 100k-device overload run backs off deterministically without
	// wall-clock stalls.
	Sleep func(time.Duration)
	// Jitter returns a uniform int64 in [0, n); nil uses the process
	// RNG. A pre-split per-device source makes backoff deterministic.
	Jitter func(n int64) int64
}

func (ctl *CallControl) sleep(d time.Duration) {
	if ctl != nil && ctl.Sleep != nil {
		ctl.Sleep(d)
		return
	}
	time.Sleep(d)
}

// retryAfterDelay parses a 429's Retry-After header (whole seconds, the
// only form this service emits).
func retryAfterDelay(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}
