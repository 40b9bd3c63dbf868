package cloud

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"snip/internal/obs"
)

// Overload survival: every ingest request passes an admission check
// before any decode or queueing work. The shard queues were already
// bounded (a full queue answers 429), but that backstop treats all
// traffic alike — under sustained overload the guard reports and
// telemetry that operators need most are shed with the same odds as the
// bulk uploads causing the overload. The admission controller fixes the
// ordering: traffic is classed by priority, bulk load is gated by
// per-game token-bucket quotas and shed first as the queues fill, and
// every 429 carries a Retry-After so the fleet's backoff converges
// instead of thundering. All tracked requests land in a per-class
// ledger where offered = accepted + shed + dropped holds by
// construction — the same conservation identity the device-side ledger
// keeps, so shed load is accounted, never silently lost.

// Priority orders the ingest classes for load shedding: lower values
// survive longer. Guard/health traffic is never shed — when the service
// is drowning, the breaker reports and health probes are exactly what
// must get through.
type Priority uint8

const (
	// PriorityGuard covers fleet guard reports and health probes:
	// admitted unconditionally.
	PriorityGuard Priority = iota
	// PriorityTelemetry covers device telemetry: shed only when the
	// owning shard's queue is nearly saturated.
	PriorityTelemetry
	// PriorityBulk covers upload-batch and rebuild — the paths
	// that create the load. Quota-gated and shed first.
	PriorityBulk
	numPriorities
)

// priorityNames are the class labels used in metrics and /v1/overloadz.
var priorityNames = [numPriorities]string{"guard", "telemetry", "bulk"}

// String returns the class label ("guard", "telemetry", "bulk").
func (p Priority) String() string {
	if int(p) < len(priorityNames) {
		return priorityNames[p]
	}
	return "unknown"
}

// Occupancy thresholds: the fraction of the owning shard's queue that
// must be full before a class is shed at admission. Bulk goes first,
// telemetry only near saturation, guard never. The gap between the two
// is the design: by the time telemetry sheds, bulk has been shedding
// for a quarter of the queue already.
const (
	bulkShedOccupancy      = 0.75
	telemetryShedOccupancy = 0.95
)

// Autoscale verdict thresholds, derived from the fleet SLO envelope
// (internal/fleet/health.go) and the telemetry pressure monitor: a
// device retries a shed batch, so a sustained bulk shed ratio of
// 1/MaxAttempts (~0.33 at the default 3-attempt RetryPolicy) pushes
// retries-per-batch past the fleet's ceiling (sloMaxRetriesPerBatch,
// 1.0) and breaks the SLO, and the drift monitor flags a shard "hot" at
// 0.80 windowed occupancy (pressureThreshold). scale_up fires at
// signal = occupancy x shed ratio = 0.80 x 0.33 ~ 0.25 — before the
// fleet SLO breaks, not after.
const (
	signalScaleUp = 0.25
	// shedRatioDecay is the EWMA weight of one bulk admission outcome;
	// ~1/decay recent requests dominate the shed ratio.
	shedRatioDecay = 0.02
)

// QuotaConfig bounds each game's bulk ingest rate with a token bucket:
// RatePerSec tokens refill continuously up to Burst, one bulk request
// takes one token, and an empty bucket sheds with Retry-After set to
// the refill horizon. The zero value disables quotas (unlimited).
type QuotaConfig struct {
	// RatePerSec is the sustained bulk requests/second allowed per game.
	// <= 0 disables the quota.
	RatePerSec float64
	// Burst is the bucket capacity (defaults to RatePerSec when unset).
	Burst float64
}

func (q QuotaConfig) enabled() bool { return q.RatePerSec > 0 }

// tokenBucket is one game's quota state. Guarded by admission.mu; the
// take path is allocation-free after the bucket exists.
type tokenBucket struct {
	tokens float64
	last   time.Time
	shed   int64
}

// classLedger is one priority class's conservation counters. Every
// tracked request increments offered and exactly one of the outcomes,
// so offered = accepted + shed + dropped holds at any instant.
type classLedger struct {
	offered  *obs.Counter
	accepted *obs.Counter
	shed     *obs.Counter
	dropped  *obs.Counter
}

// admission is the controller: quota buckets, the decayed bulk shed
// ratio feeding the autoscale signal, and the per-class ledger.
type admission struct {
	queueCap int
	quota    QuotaConfig
	now      func() time.Time // injectable clock for quota tests

	mu        sync.Mutex
	buckets   map[string]*tokenBucket
	shedRatio float64 // EWMA over recent bulk admission outcomes
	lastOcc   float64 // most recent occupancy seen by decide

	classes   [numPriorities]classLedger
	quotaShed *obs.Counter
	signalPM  *obs.Gauge
	occPM     *obs.Gauge
	shedPM    *obs.Gauge
}

func newAdmission(queueCap int, quota QuotaConfig, reg *obs.Registry) *admission {
	if quota.enabled() && quota.Burst <= 0 {
		quota.Burst = quota.RatePerSec
	}
	a := &admission{
		queueCap: queueCap,
		quota:    quota,
		now:      time.Now,
		buckets:  make(map[string]*tokenBucket),
		quotaShed: reg.Counter("snip_cloud_overload_quota_shed_total",
			"bulk requests shed by a per-game token-bucket quota"),
		signalPM: reg.Gauge("snip_cloud_overload_signal_permille",
			"autoscale signal (queue occupancy x decayed bulk shed ratio), in permille"),
		occPM: reg.Gauge("snip_cloud_overload_occupancy_permille",
			"owning-shard queue occupancy last seen at admission, in permille"),
		shedPM: reg.Gauge("snip_cloud_overload_shed_ratio_permille",
			"decayed bulk shed ratio over recent admissions, in permille"),
	}
	for p := Priority(0); p < numPriorities; p++ {
		l := `{class="` + p.String() + `"}`
		a.classes[p] = classLedger{
			offered:  reg.Counter("snip_cloud_overload_offered_total"+l, "ingest requests offered to this class"),
			accepted: reg.Counter("snip_cloud_overload_accepted_total"+l, "ingest requests accepted (status < 400)"),
			shed:     reg.Counter("snip_cloud_overload_shed_total"+l, "ingest requests shed with 429 + Retry-After"),
			dropped:  reg.Counter("snip_cloud_overload_dropped_total"+l, "ingest requests failed with a non-429 error status"),
		}
	}
	return a
}

// admitDecision is one admission check's outcome.
type admitDecision struct {
	allow      bool
	reason     string
	retryAfter time.Duration
}

// decide runs the admission check for one request given the owning
// shard's current queue occupancy (0..1). It does not touch the
// ledger — account records the final status once the handler is done,
// so the ledger also covers requests shed later by the queue backstop
// or failed in the handler itself.
func (a *admission) decide(pri Priority, game string, occupancy float64) admitDecision {
	a.mu.Lock()
	a.lastOcc = occupancy
	a.mu.Unlock()
	a.occPM.Set(int64(occupancy * 1000))
	switch pri {
	case PriorityGuard:
		return admitDecision{allow: true}
	case PriorityTelemetry:
		if occupancy >= telemetryShedOccupancy {
			return admitDecision{reason: "telemetry shed near saturation", retryAfter: time.Second}
		}
		return admitDecision{allow: true}
	}
	// Bulk: quota first (deterministic, independent of load), then the
	// occupancy gate.
	if a.quota.enabled() {
		if ok, wait := a.takeToken(game); !ok {
			a.quotaShed.Inc()
			return admitDecision{reason: "quota exceeded for game " + game, retryAfter: wait}
		}
	}
	if occupancy >= bulkShedOccupancy {
		return admitDecision{reason: "bulk shed under queue pressure", retryAfter: time.Second}
	}
	return admitDecision{allow: true}
}

// takeToken consumes one quota token for game; on an empty bucket it
// reports the wait until the next token refills. Allocation-free once
// the game's bucket exists.
func (a *admission) takeToken(game string) (ok bool, wait time.Duration) {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b, exists := a.buckets[game]
	if !exists {
		b = &tokenBucket{tokens: a.quota.Burst, last: now}
		a.buckets[game] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * a.quota.RatePerSec
		if b.tokens > a.quota.Burst {
			b.tokens = a.quota.Burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	b.shed++
	deficit := 1 - b.tokens
	wait = time.Duration(deficit / a.quota.RatePerSec * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	if wait > 8*time.Second {
		wait = 8 * time.Second
	}
	return false, wait
}

// account records one tracked request's final status in its class
// ledger: offered plus exactly one of accepted (< 400), shed (429) or
// dropped (any other error status). Bulk outcomes also feed the
// decayed shed ratio behind the autoscale signal.
func (a *admission) account(pri Priority, status int) {
	l := &a.classes[pri]
	l.offered.Inc()
	shedSample := 0.0
	switch {
	case status == http.StatusTooManyRequests:
		l.shed.Inc()
		shedSample = 1.0
	case status < 400:
		l.accepted.Inc()
	default:
		l.dropped.Inc()
	}
	if pri != PriorityBulk {
		return
	}
	a.mu.Lock()
	a.shedRatio += shedRatioDecay * (shedSample - a.shedRatio)
	signal := a.lastOcc * a.shedRatio
	ratio := a.shedRatio
	a.mu.Unlock()
	a.shedPM.Set(int64(ratio * 1000))
	a.signalPM.Set(int64(signal * 1000))
}

// writeShed answers a shed request: 429 with Retry-After in whole
// seconds (minimum 1), so even a dumb client knows when to come back.
func writeShed(w http.ResponseWriter, msg string, retryAfter time.Duration) {
	secs := int(retryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, msg, http.StatusTooManyRequests)
}

// occupancy returns the owning shard's current queue fill (0..1).
func (s *Service) occupancy(game string) float64 {
	sh := s.shardFor(game)
	return float64(len(sh.queue)) / float64(sh.cap)
}

// maxOccupancy returns the fullest shard's queue fill (0..1).
func (s *Service) maxOccupancy() float64 {
	occ := 0.0
	for _, sh := range s.shards {
		if o := float64(len(sh.queue)) / float64(sh.cap); o > occ {
			occ = o
		}
	}
	return occ
}

// admit runs the admission check for one tracked ingest request; on a
// shed it writes the 429 + Retry-After and returns false.
func (s *Service) admit(w http.ResponseWriter, pri Priority, game string) bool {
	dec := s.adm.decide(pri, game, s.occupancy(game))
	if dec.allow {
		return true
	}
	writeShed(w, "overloaded: "+dec.reason, dec.retryAfter)
	return false
}

// OverloadClass is one priority class's row in /v1/overloadz: the
// conservation ledger (offered = accepted + shed + dropped).
type OverloadClass struct {
	Class    string `json:"class"`
	Offered  int64  `json:"offered"`
	Accepted int64  `json:"accepted"`
	Shed     int64  `json:"shed"`
	Dropped  int64  `json:"dropped"`
}

// OverloadQuota is one game's quota bucket state in /v1/overloadz.
type OverloadQuota struct {
	Game   string  `json:"game"`
	Tokens float64 `json:"tokens"`
	Shed   int64   `json:"shed"`
}

// OverloadzReply is the GET /v1/overloadz JSON schema.
type OverloadzReply struct {
	QueueCap   int             `json:"queue_cap"`
	Shards     int             `json:"shards"`
	Occupancy  float64         `json:"occupancy"`
	ShedRatio  float64         `json:"shed_ratio"`
	Signal     float64         `json:"signal"`
	Verdict    string          `json:"verdict"` // "steady" | "hold" | "scale_up"
	QuotaRate  float64         `json:"quota_rate_per_sec,omitempty"`
	QuotaBurst float64         `json:"quota_burst,omitempty"`
	QuotaShed  int64           `json:"quota_shed"`
	Classes    []OverloadClass `json:"classes"`
	Quotas     []OverloadQuota `json:"quotas,omitempty"`
}

// Overloadz snapshots the overload view served at /v1/overloadz — the
// feed for snipstat's overload pane and fleetbench's cloud-side
// conservation check.
func (s *Service) Overloadz() OverloadzReply {
	a := s.adm
	occ := s.maxOccupancy()
	a.mu.Lock()
	ratio := a.shedRatio
	games := make([]string, 0, len(a.buckets))
	for g := range a.buckets {
		games = append(games, g)
	}
	sort.Strings(games)
	quotas := make([]OverloadQuota, 0, len(games))
	for _, g := range games {
		b := a.buckets[g]
		quotas = append(quotas, OverloadQuota{Game: g, Tokens: b.tokens, Shed: b.shed})
	}
	a.mu.Unlock()
	signal := occ * ratio
	verdict := "steady"
	switch {
	case signal >= signalScaleUp:
		verdict = "scale_up"
	case ratio > 0 || occ >= bulkShedOccupancy:
		verdict = "hold"
	}
	reply := OverloadzReply{
		QueueCap:   a.queueCap,
		Shards:     len(s.shards),
		Occupancy:  occ,
		ShedRatio:  ratio,
		Signal:     signal,
		Verdict:    verdict,
		QuotaRate:  a.quota.RatePerSec,
		QuotaBurst: a.quota.Burst,
		QuotaShed:  a.quotaShed.Value(),
		Quotas:     quotas,
	}
	for p := Priority(0); p < numPriorities; p++ {
		l := &a.classes[p]
		reply.Classes = append(reply.Classes, OverloadClass{
			Class:    p.String(),
			Offered:  l.offered.Value(),
			Accepted: l.accepted.Value(),
			Shed:     l.shed.Value(),
			Dropped:  l.dropped.Value(),
		})
	}
	return reply
}

// endpointClass maps tracked ingest endpoints to their priority class;
// the instrument middleware feeds the per-class ledger from it.
var endpointClass = map[string]Priority{
	"upload-batch": PriorityBulk,
	"rebuild":      PriorityBulk,
	"telemetry":    PriorityTelemetry,
	"guard":        PriorityGuard,
	"healthz":      PriorityGuard,
}
