package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"snip/internal/memo"
	"snip/internal/obs"
	"snip/internal/pfi"
	"snip/internal/trace"
	"snip/internal/units"
)

// Service exposes the profiler fleet over HTTP — the device/cloud split
// of Fig. 10. Endpoints:
//
//	POST /v1/upload-batch?game=G    body: SNIPBTCH3 session batch (events-only logs)
//	POST /v1/rebuild?game=G         retrain PFI, build a new table
//	GET  /v1/update?game=G&gen=N    OTA table: delta chain from gen N, or the full flat image
//	GET  /v1/status?game=G          text status
//	GET  /v1/metrics                Prometheus text exposition
//	GET  /v1/healthz                JSON health/SLO verdict
//	GET  /v1/tracez                 recent ingest spans (JSON)
//	POST /v1/guard                  fleet guard status report
//	POST /v1/telemetry              SNIPTEL1 telemetry batch ingest
//	GET  /v1/fleetz                 fleet telemetry rollups (JSON)
//	GET  /v1/energyz                fleet energy rollups (JSON)
//	GET  /v1/shardz                 shard ownership/queue view (JSON)
//	GET  /v1/overloadz              admission/overload ledger (JSON)
//	GET  /debug/pprof/*             net/http/pprof profiles
//
// Requests carrying an X-Snip-Trace header (see obs.TraceHeader) are
// linked into the caller's distributed trace: the middleware records a
// cloud-side ingest span under the device-side parent and attaches the
// trace ID as the latency histogram's bucket exemplar, so one trace ID
// follows an event chain from device dispatch to cloud ingest.
type Service struct {
	mu      sync.Mutex
	cfg     pfi.Config
	shards  []*shard
	guards  map[string]GuardStatus
	reg     *obs.Registry
	met     *serviceMetrics
	tel     *telemetryAggregator
	adm     *admission
	spans   *obs.SpanBuffer
	started time.Time
	log     *slog.Logger

	// deltaCap bounds each game's retained delta chain, fixed at
	// construction; shardWorkers is the replay fan-out each shard's
	// ingest jobs get (the worker budget divided across shards).
	deltaCap     int
	shardWorkers int
	wg           sync.WaitGroup
	closeOnce    sync.Once
}

// Ingest body limits: requests are bounded before any decode work, so a
// hostile or corrupted upload costs a bounded read, never an unbounded
// allocation. The decoded cap is what stops a gzip bomb — a few-KiB
// compressed body that inflates to tens of MiB dies at the cap with a
// 413, not in the payload decoder's allocator.
const (
	// MaxBatchBytes bounds a batch upload's compressed body.
	MaxBatchBytes = 8 << 20
	// MaxBatchDecodedBytes bounds the batch's decompressed size.
	MaxBatchDecodedBytes = 32 << 20
)

// serviceMetrics holds the cloud-side series: business counters plus
// per-endpoint request accounting fed by the latency middleware.
type serviceMetrics struct {
	uploads      *obs.Counter
	batches      *obs.Counter
	batchBytes   *obs.Counter
	records      *obs.Counter
	rebuilds     *obs.Counter
	rebuildFails *obs.Counter
	tablesServed *obs.Counter
	// Deterministic ingest rejections: corrupt bodies (truncated,
	// checksum or parse) and oversized ones (body or decoded-size cap).
	rejectedCorrupt  *obs.Counter
	rejectedOversize *obs.Counter
	// Telemetry ingest accounting; dropped counts records rejected by
	// the aggregator's game cap.
	telemetryBatches *obs.Counter
	telemetryRecords *obs.Counter
	telemetryDropped *obs.Counter

	requests  map[string]*obs.Counter   // by endpoint
	errors    map[string]*obs.Counter   // by endpoint, status >= 400
	latencyNS map[string]*obs.Histogram // by endpoint
	spanNames map[string]string         // by endpoint: "cloud.<ep>", pre-built
}

// endpoints the middleware tracks; fixed so every series exists from
// the first scrape rather than appearing after first use.
var endpointNames = []string{"upload-batch", "rebuild", "update", "status", "metrics", "healthz", "tracez", "guard", "telemetry", "fleetz", "shardz", "energyz", "overloadz"}

// ingestEndpoints are the ones whose error rate feeds the /v1/healthz
// verdict — the data-path endpoints, not the introspection ones.
var ingestEndpoints = []string{"upload-batch", "rebuild", "update", "telemetry"}

func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	m := &serviceMetrics{
		uploads:      reg.Counter("snip_cloud_uploads_total", "event logs ingested (batched sessions count individually)"),
		batches:      reg.Counter("snip_cloud_upload_batches_total", "multi-session batch uploads ingested"),
		batchBytes:   reg.Counter("snip_cloud_upload_batch_bytes_total", "compressed bytes received on the batch endpoint"),
		records:      reg.Counter("snip_cloud_records_total", "profile records reconstructed from uploads"),
		rebuilds:     reg.Counter("snip_cloud_rebuilds_total", "PFI rebuilds completed"),
		rebuildFails: reg.Counter("snip_cloud_rebuild_failures_total", "PFI rebuilds that errored"),
		tablesServed: reg.Counter("snip_cloud_tables_served_total", "OTA table downloads served"),
		rejectedCorrupt: reg.Counter("snip_cloud_uploads_rejected_corrupt_total",
			"uploads rejected for failing the checksum or parse"),
		rejectedOversize: reg.Counter("snip_cloud_uploads_rejected_oversize_total",
			"uploads rejected for exceeding a body or decoded-size cap"),
		telemetryBatches: reg.Counter("snip_cloud_telemetry_batches_total",
			"device telemetry batches ingested"),
		telemetryRecords: reg.Counter("snip_cloud_telemetry_records_total",
			"device telemetry records folded into the fleet rollups"),
		telemetryDropped: reg.Counter("snip_cloud_telemetry_dropped_total",
			"telemetry records dropped by the aggregator's game cap"),
		requests:  make(map[string]*obs.Counter, len(endpointNames)),
		errors:    make(map[string]*obs.Counter, len(endpointNames)),
		latencyNS: make(map[string]*obs.Histogram, len(endpointNames)),
		spanNames: make(map[string]string, len(endpointNames)),
	}
	for _, ep := range endpointNames {
		m.requests[ep] = reg.Counter(
			`snip_cloud_requests_total{endpoint="`+ep+`"}`, "HTTP requests received")
		m.errors[ep] = reg.Counter(
			`snip_cloud_request_errors_total{endpoint="`+ep+`"}`, "HTTP requests answered with status >= 400")
		m.latencyNS[ep] = reg.Histogram(
			`snip_cloud_request_ns{endpoint="`+ep+`"}`, "request handling wall time in nanoseconds", obs.NanoBuckets())
		m.spanNames[ep] = "cloud." + ep
	}
	return m
}

// ServiceOptions configures the serving stack beyond the PFI config:
// the shard fan-out, each shard's ingest queue bound, the per-game bulk
// admission quota and the delta chain bound. Zero values take the
// defaults (1 shard, DefaultShardQueueCap, unlimited quota,
// DefaultMaxDeltaChain).
type ServiceOptions struct {
	// Shards is the profiler replica count behind the rendezvous router.
	Shards int
	// QueueCap bounds each shard's ingest queue; a full queue sheds
	// with 429 + Retry-After.
	QueueCap int
	// Quota gates bulk ingest per game with a token bucket (see
	// QuotaConfig). The zero value admits everything.
	Quota QuotaConfig
	// DeltaCap bounds every game's retained delta chain — the longest
	// chain /v1/update ships before falling back to the full image.
	DeltaCap int
}

// NewServiceWithOptions builds an empty service; profilers are created
// per game on first upload. Games are partitioned across opt.Shards
// in-process profiler replicas behind the rendezvous router (see
// ShardFor). Each shard owns its games' profilers and drains its own
// bounded ingest queue on a dedicated worker; the replay worker budget
// (GOMAXPROCS) is divided across shards. Every service owns a metrics
// registry (see Metrics) exposed at GET /v1/metrics. The options are
// fixed for the service's lifetime. Call Close when done to stop the
// shard workers.
func NewServiceWithOptions(cfg pfi.Config, opt ServiceOptions) *Service {
	shards := opt.Shards
	if shards < 1 {
		shards = 1
	}
	queueCap := opt.QueueCap
	if queueCap < 1 {
		queueCap = DefaultShardQueueCap
	}
	deltaCap := opt.DeltaCap
	if deltaCap < 1 {
		deltaCap = DefaultMaxDeltaChain
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg // rebuild-time PFI searches surface in /v1/metrics
	s := &Service{
		cfg:          cfg,
		guards:       make(map[string]GuardStatus),
		reg:          reg,
		met:          newServiceMetrics(reg),
		tel:          newTelemetryAggregator(),
		adm:          newAdmission(queueCap, opt.Quota, reg),
		spans:        obs.NewSpanBuffer(obs.DefaultSpanCapacity),
		started:      time.Now(),
		deltaCap:     deltaCap,
		shardWorkers: max(1, runtime.GOMAXPROCS(0)/shards),
	}
	reg.Gauge("snip_cloud_shards", "shard replicas behind the router").Set(int64(shards))
	for i := 0; i < shards; i++ {
		sh := newShard(i, queueCap, reg)
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go sh.run(&s.wg)
	}
	// A constant-1 series whose labels carry the build facts scrapers
	// key dashboards on: the flat image layout version the service
	// builds and serves.
	reg.Gauge(`snip_build_info{layout_version="`+strconv.Itoa(memo.FlatLayoutVersion)+`",tables="flat"}`,
		"build facts as labels; always 1").Set(1)
	return s
}

// Close stops the shard workers and waits for in-flight ingest jobs to
// drain. Call only after the HTTP server has stopped accepting
// requests; handlers that enqueue after Close would panic.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		for _, sh := range s.shards {
			close(sh.queue)
		}
		s.wg.Wait()
	})
}

// Shards returns the shard count behind the router.
func (s *Service) Shards() int { return len(s.shards) }

// shardFor returns the shard owning a game.
func (s *Service) shardFor(game string) *shard {
	return s.shards[ShardFor(game, len(s.shards))]
}

// Metrics returns the service's registry, for embedding its series into
// a larger exposition or snapshotting in tests.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// Spans returns the service's ingest-span ring — the cloud half of the
// distributed traces served at /v1/tracez.
func (s *Service) Spans() *obs.SpanBuffer { return s.spans }

// SetLogger attaches a structured logger for request and rebuild
// events. Nil (the default) disables logging.
func (s *Service) SetLogger(l *slog.Logger) { s.log = l }

func (s *Service) profiler(game string) *Profiler {
	return s.shardFor(game).profiler(game, s.cfg, s.deltaCap)
}

// gameCount sums the games owned across shards.
func (s *Service) gameCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.profilers)
		sh.mu.Unlock()
	}
	return n
}

// statusWriter captures the response code for the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request counting, latency measurement,
// structured logging and distributed-trace continuation for one
// endpoint: a request carrying X-Snip-Trace gets a cloud-side span
// recorded under the device-side parent, and its trace ID becomes the
// latency histogram's bucket exemplar.
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Counted on receipt: a reply that states its length may reach
		// the client before h returns.
		s.met.requests[endpoint].Inc()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start)
		if sw.code >= 400 {
			s.met.errors[endpoint].Inc()
		}
		// The overload ledger counts every tracked ingest request by its
		// final status — one increment of offered plus exactly one
		// outcome — so offered = accepted + shed + dropped holds by
		// construction whether the shed came from admission, the queue
		// backstop, or a handler error.
		if pri, tracked := endpointClass[endpoint]; tracked {
			s.adm.account(pri, sw.code)
		}
		if sc, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader)); ok {
			s.met.latencyNS[endpoint].ObserveExemplar(elapsed.Nanoseconds(), sc.Trace)
			name := s.met.spanNames[endpoint]
			sp := obs.StartSpan(sc.Child(obs.HashName(name)), sc.Span, name, 0)
			sp.Service = "cloud"
			sp.Err = sw.code >= 400
			s.spans.FinishWall(&sp, elapsed.Nanoseconds())
		} else {
			s.met.latencyNS[endpoint].Observe(elapsed.Nanoseconds())
		}
		if s.log != nil {
			s.log.Info("request",
				"endpoint", endpoint, "method", r.Method,
				"game", r.URL.Query().Get("game"),
				"status", sw.code, "elapsed", elapsed)
		}
	}
}

// Handler returns the HTTP handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/upload-batch", s.instrument("upload-batch", s.handleUploadBatch))
	mux.HandleFunc("POST /v1/rebuild", s.instrument("rebuild", s.handleRebuild))
	mux.HandleFunc("GET /v1/update", s.instrument("update", s.handleUpdate))
	mux.HandleFunc("GET /v1/shardz", s.instrument("shardz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Shardz())
	}))
	mux.HandleFunc("GET /v1/status", s.instrument("status", s.handleStatus))
	mux.HandleFunc("GET /v1/metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/tracez", s.instrument("tracez", s.handleTracez))
	mux.HandleFunc("POST /v1/guard", s.instrument("guard", s.handleGuard))
	mux.HandleFunc("POST /v1/telemetry", s.instrument("telemetry", s.handleTelemetry))
	mux.HandleFunc("GET /v1/fleetz", s.instrument("fleetz", s.handleFleetz))
	mux.HandleFunc("GET /v1/energyz", s.instrument("energyz", s.handleEnergyz))
	mux.HandleFunc("GET /v1/overloadz", s.instrument("overloadz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Overloadz())
	}))
	// net/http/pprof, wired explicitly (the service never touches the
	// DefaultServeMux): CPU/heap/goroutine/block profiles for debugging
	// a live profiler under fleet load.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// HealthCheck is one /v1/healthz verdict line.
type HealthCheck struct {
	Name      string  `json:"name"`
	OK        bool    `json:"ok"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Detail    string  `json:"detail,omitempty"`
}

// HealthzReply is the GET /v1/healthz JSON schema.
type HealthzReply struct {
	Status        string        `json:"status"` // "ok" | "degraded"
	UptimeSeconds float64       `json:"uptime_seconds"`
	Games         int           `json:"games"`
	SpansRetained int           `json:"spans_retained"`
	Checks        []HealthCheck `json:"checks"`
}

// TracezReply is the GET /v1/tracez JSON schema.
type TracezReply struct {
	Total    int64      `json:"total_recorded"`
	Retained int        `json:"retained"`
	Spans    []obs.Span `json:"spans"`
}

// writeJSON answers a GET view: the reply, indented, with the status
// code. Every JSON view is served through it.
func writeJSON(w http.ResponseWriter, code int, reply any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(reply)
}

// Healthz evaluates the service's SLO checks: the data-path endpoints'
// error ratio must stay under 10% (once enough requests exist to
// judge), and rebuilds must not be failing more often than succeeding.
func (s *Service) Healthz() HealthzReply {
	games := s.gameCount()
	reply := HealthzReply{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Games:         games,
		SpansRetained: s.spans.Len(),
	}
	const (
		errorRatioMax  = 0.10
		minJudgeable   = 20 // requests before an error ratio means anything
		rebuildFailMax = 0.50
	)
	for _, ep := range ingestEndpoints {
		reqs := s.met.requests[ep].Value()
		errs := s.met.errors[ep].Value()
		ratio := 0.0
		if reqs > 0 {
			ratio = float64(errs) / float64(reqs)
		}
		ok := reqs < minJudgeable || ratio <= errorRatioMax
		reply.Checks = append(reply.Checks, HealthCheck{
			Name: "error_ratio_" + ep, OK: ok, Value: ratio, Threshold: errorRatioMax,
			Detail: fmt.Sprintf("%d/%d requests errored", errs, reqs),
		})
		if !ok {
			reply.Status = "degraded"
		}
	}
	rebuilds := s.met.rebuilds.Value()
	fails := s.met.rebuildFails.Value()
	failRatio := 0.0
	if rebuilds+fails > 0 {
		failRatio = float64(fails) / float64(rebuilds+fails)
	}
	rebuildOK := failRatio <= rebuildFailMax
	reply.Checks = append(reply.Checks, HealthCheck{
		Name: "rebuild_failures", OK: rebuildOK, Value: failRatio, Threshold: rebuildFailMax,
		Detail: fmt.Sprintf("%d failed of %d attempts", fails, rebuilds+fails),
	})
	if !rebuildOK {
		reply.Status = "degraded"
	}
	// Fleet guard reports: an open breaker anywhere means some fleet is
	// serving without short-circuiting — degraded until it reports
	// recovery (rollback done, breaker closed).
	s.mu.Lock()
	guardGames := make([]string, 0, len(s.guards))
	for game := range s.guards {
		guardGames = append(guardGames, game)
	}
	sort.Strings(guardGames)
	guards := make(map[string]GuardStatus, len(guardGames))
	for _, game := range guardGames {
		guards[game] = s.guards[game]
	}
	s.mu.Unlock()
	for _, game := range guardGames {
		st := guards[game]
		ok := !st.BreakerOpen
		reply.Checks = append(reply.Checks, HealthCheck{
			Name: "guard_breaker_" + game, OK: ok, Value: st.MispredictRatio(), Threshold: 0,
			Detail: fmt.Sprintf("%d mispredicts in %d checks, %d trips, %d rollbacks, generation %d",
				st.Mispredicts, st.ShadowChecks, st.Trips, st.Rollbacks, st.Generation),
		})
		if !ok {
			reply.Status = "degraded"
		}
	}
	// Fleet energy: a live generation spending measurably more net
	// energy per event than its predecessor is a regression the rebuild
	// policy must see, even when its raw hit rate looks fine.
	s.energyHealthChecks(&reply)
	return reply
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reply := s.Healthz()
	code := http.StatusOK
	if reply.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, reply)
}

// handleTracez dumps recently recorded ingest spans, oldest first.
// ?trace=<16 hex chars> filters to one trace; ?limit=N caps the dump
// (default 256, newest retained).
func (s *Service) handleTracez(w http.ResponseWriter, r *http.Request) {
	spans := s.spans.Spans()
	if tq := r.URL.Query().Get("trace"); tq != "" {
		id, err := obs.ParseID(tq)
		if err != nil {
			http.Error(w, "bad trace: "+err.Error(), http.StatusBadRequest)
			return
		}
		spans = s.spans.ForTrace(id)
	}
	limit := 256
	if lq := r.URL.Query().Get("limit"); lq != "" {
		n, err := strconv.Atoi(lq)
		if err != nil || n < 1 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	if len(spans) > limit {
		spans = spans[len(spans)-limit:]
	}
	if spans == nil {
		spans = []obs.Span{}
	}
	writeJSON(w, http.StatusOK, TracezReply{Total: s.spans.Total(), Retained: s.spans.Len(), Spans: spans})
}

// gameParam extracts and validates the required ?game= query parameter.
// On a missing value it writes a 400 and returns ok=false; every
// endpoint that keys on a game shares this check.
func gameParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	game := r.URL.Query().Get("game")
	if game == "" {
		http.Error(w, "missing game", http.StatusBadRequest)
		return "", false
	}
	return game, true
}

// replayFailed answers an ingest whose replay failed: 400, counted as
// corrupt, for a log the emulator cannot replay, and 500 otherwise.
func (s *Service) replayFailed(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrBadLog) {
		s.met.rejectedCorrupt.Inc()
		http.Error(w, "replay: "+err.Error(), http.StatusBadRequest)
		return
	}
	http.Error(w, "replay: "+err.Error(), http.StatusInternalServerError)
}

// handleUploadBatch ingests a gzip'd multi-session batch: the fleet's
// bulk path. Sessions replay in parallel on the profiler's emulator
// fan-out and merge in upload order, so the resulting profile is
// byte-identical to uploading the sessions one at a time.
func (s *Service) handleUploadBatch(w http.ResponseWriter, r *http.Request) {
	game, ok := gameParam(w, r)
	if !ok {
		return
	}
	if !s.admit(w, PriorityBulk, game) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBatchBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.met.rejectedOversize.Inc()
			http.Error(w, "batch too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	batch, err := trace.DecodeBatchLimit(bytes.NewReader(body), MaxBatchDecodedBytes)
	if err != nil {
		if errors.Is(err, trace.ErrBatchTooLarge) {
			// A valid gzip stream whose decompressed size blew the cap:
			// the gzip-bomb signature.
			s.met.rejectedOversize.Inc()
			http.Error(w, "batch decoded size exceeds limit", http.StatusRequestEntityTooLarge)
			return
		}
		// Truncations, checksum mismatches and parse failures are one
		// deterministic family: the body that arrived is not the body
		// that was sent.
		s.met.rejectedCorrupt.Inc()
		http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	if batch.Game != "" && batch.Game != game {
		http.Error(w, fmt.Sprintf("batch game %q != %q", batch.Game, game), http.StatusBadRequest)
		return
	}
	if len(batch.Sessions) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	logs := make([]SessionLog, len(batch.Sessions))
	for i, se := range batch.Sessions {
		logs[i] = SessionLog{Seed: se.Seed, Log: se.Log}
	}
	p := s.profiler(game)
	sh := s.shardFor(game)
	var before, after int
	err, shed := sh.enqueue(func() error {
		before = p.ProfileLen()
		if err := p.IngestLogs(s.shardWorkers, logs); err != nil {
			return err
		}
		after = p.ProfileLen()
		return nil
	})
	if shed {
		writeShed(w, "shard ingest queue full", time.Second)
		return
	}
	if err != nil {
		s.replayFailed(w, err)
		return
	}
	s.met.uploads.Add(int64(len(logs)))
	s.met.batches.Inc()
	s.met.batchBytes.Add(int64(len(body)))
	s.met.records.Add(int64(after - before))
	sh.met.batches.Inc()
	sh.met.sessions.Add(int64(len(logs)))
	sh.met.records.Add(int64(after - before))
	fmt.Fprintf(w, "ok sessions=%d records=%d\n", len(logs), after)
}

func (s *Service) handleRebuild(w http.ResponseWriter, r *http.Request) {
	game, ok := gameParam(w, r)
	if !ok {
		return
	}
	if !s.admit(w, PriorityBulk, game) {
		return
	}
	p := s.profiler(game)
	sh := s.shardFor(game)
	var up *TableUpdate
	err, shed := sh.enqueue(func() error {
		var err error
		up, err = p.Rebuild()
		return err
	})
	if shed {
		writeShed(w, "shard ingest queue full", time.Second)
		return
	}
	if err != nil {
		s.met.rebuildFails.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.met.rebuilds.Inc()
	sh.met.rebuilds.Inc()
	s.reg.Gauge(`snip_cloud_table_version{game="`+game+`"}`,
		"latest table version built per game").Set(int64(up.Version))
	if s.log != nil {
		s.log.Info("rebuild", "game", game, "version", up.Version,
			"rows", up.Table.Rows(), "coverage", up.Metrics.Coverage)
	}
	fmt.Fprintf(w, "ok version=%d rows=%d size=%v\n", up.Version, up.Table.Rows(), up.Table.Size())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	game, ok := gameParam(w, r)
	if !ok {
		return
	}
	p := s.profiler(game)
	fmt.Fprintf(w, "game=%s records=%d", game, p.ProfileLen())
	if up := p.Latest(); up != nil {
		fmt.Fprintf(w, " version=%d rows=%d size=%v coverage=%.1f%%",
			up.Version, up.Table.Rows(), up.Table.Size(), 100*up.Metrics.Coverage)
	}
	fmt.Fprintln(w)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// DefaultClientTimeout is the default per-attempt bound installed by
// DefaultRetryPolicy; table rebuilds dominate, and even large profiles
// finish well inside it.
const DefaultClientTimeout = 30 * time.Second

// RetryPolicy bounds the client's retry loop for transient failures
// (network errors and 5xx responses). Backoff is exponential with full
// jitter: attempt n sleeps uniform(0, min(MaxDelay, BaseDelay·2ⁿ⁻¹)].
// 4xx responses never retry — they are the caller's bug, and retrying
// them would just triple the error latency — with one exception: 429
// is the cloud shedding load, not a caller bug, and Retry429 opts into
// treating it as retryable under the server's Retry-After guidance.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first.
	// <= 1 disables retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep.
	MaxDelay time.Duration
	// Timeout bounds each individual attempt end to end — connect
	// through the last body byte, enforced with a per-request context
	// deadline (cancelled when the response body is closed). 0 disables
	// the bound. It lives on the policy because timeout and retry
	// interact: the worst-case call latency is
	// MaxAttempts·Timeout + backoff sleeps.
	Timeout time.Duration
	// Retry429 makes HTTP 429 a first-class retryable outcome: the
	// client waits out the response's Retry-After (plus jitter, so a
	// shed fleet desynchronizes) before trying again, and a per-call
	// RetryBudget (see CallControl) bounds how long a device keeps
	// trying. False — the default — keeps the legacy contract: a 429 is
	// returned to the caller like any other 4xx.
	Retry429 bool
}

// DefaultRetryPolicy is what NewClient installs: up to 3 tries with
// 50 ms base backoff capped at 2 s — enough to ride out a profiler
// restart without turning a dead cloud into a half-minute stall — and a
// 30 s per-attempt timeout.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Timeout:     DefaultClientTimeout,
	}
}

// backoff returns the sleep before retry attempt n (n >= 1).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	return p.backoffWith(attempt, rand.Int64N)
}

// backoffWith is backoff with an injectable jitter source, so a
// per-device pre-split RNG makes the fleet's backoff deterministic.
func (p RetryPolicy) backoffWith(attempt int, jitter func(int64) int64) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if p.MaxDelay > 0 && (d > p.MaxDelay || d <= 0) {
		d = p.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(jitter(int64(d))) + 1
}

// Client is the device-side counterpart: upload session batches,
// request rebuilds, fetch tables. The underlying transport keeps
// connections alive and pools them per host, so a fleet of devices
// sharing one Client multiplexes over a handful of sockets instead of
// handshaking per request. Safe for concurrent use.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retry bounds the transient-failure retry loop and the per-attempt
	// timeout (see RetryPolicy).
	Retry RetryPolicy

	// retries counts retry attempts when metrics are attached; shed
	// counts 429 responses — kept apart from transport failures so shed
	// load is never misread as corruption or a flaky network.
	retries *obs.Counter
	shed    *obs.Counter
	// log, when attached, records every retry attempt and final
	// give-up with the upload's trace ID.
	log *slog.Logger
}

// NewClient builds a client for the given base URL (e.g.
// "http://127.0.0.1:8370"). Requests are bounded by the retry policy's
// per-attempt Timeout (DefaultClientTimeout out of the box — set
// c.Retry.Timeout to tune it); the pooled keep-alive transport is sized
// for fleet fan-in. Replace c.HTTP to tune the transport.
func NewClient(baseURL string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Transport: tr},
		Retry:   DefaultRetryPolicy(),
	}
}

// SetMetrics attaches an observability registry; the client then counts
// retry attempts in snip_cloud_client_retries_total and 429 sheds in
// snip_cloud_client_shed_total. Nil detaches.
func (c *Client) SetMetrics(reg *obs.Registry) {
	c.retries = reg.Counter("snip_cloud_client_retries_total",
		"client requests retried after a transient failure")
	c.shed = reg.Counter("snip_cloud_client_shed_total",
		"client requests answered 429: load the cloud deliberately shed")
}

// SetLogger attaches a structured logger; the client then logs every
// retry attempt (level WARN, with the upload's trace ID) and final
// give-up (level ERROR) instead of retrying silently. Nil disables.
func (c *Client) SetLogger(l *slog.Logger) { c.log = l }

// endpoint assembles BaseURL + path + escaped query parameters.
func (c *Client) endpoint(path string, q url.Values) string {
	u := c.BaseURL + path
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	return u
}

// cancelBody releases the attempt's context deadline when the caller
// finishes reading the response (Close), so the timeout covers the
// whole exchange without leaking a timer per request.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// do issues one request with bounded retry on transient failures and
// returns the response plus how many retries the call needed. body may
// be nil; it is re-read from the byte slice on every attempt, which is
// why the request body is materialized rather than streamed. A valid sc
// is propagated in the X-Snip-Trace header, linking the server-side
// ingest span into the caller's trace, and stamps the retry log lines.
func (c *Client) do(method, u, contentType string, body []byte, sc obs.SpanContext) (*http.Response, int, error) {
	resp, retries, _, err := c.doCtl(method, u, contentType, body, sc, nil)
	return resp, retries, err
}

// doCtl is do with per-call backpressure control and shed accounting:
// it additionally reports how many attempts were answered 429. With
// Retry429 set on the policy, a 429 waits out the server's Retry-After
// plus jitter (a missing header falls back to the policy backoff)
// before retrying, gated by ctl's RetryBudget; exhausting the budget or
// the attempts on sheds fails the call with an ErrShed-wrapped error.
func (c *Client) doCtl(method, u, contentType string, body []byte, sc obs.SpanContext, ctl *CallControl) (*http.Response, int, int, error) {
	pol := c.Retry
	if pol.MaxAttempts <= 0 {
		pol.MaxAttempts = 1
	}
	jitter := rand.Int64N
	if ctl != nil && ctl.Jitter != nil {
		jitter = ctl.Jitter
	}
	var lastErr error
	var sleepFor time.Duration
	retries, shed := 0, 0
	lastShed := false
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			retries++
			c.retries.Inc()
			if c.log != nil {
				c.log.Warn("cloud client retry",
					"attempt", attempt+1, "max_attempts", pol.MaxAttempts,
					"url", u, "trace_id", sc.Trace.String(), "err", lastErr)
			}
			ctl.sleep(sleepFor)
		}
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if pol.Timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, pol.Timeout)
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			cancel()
			return nil, retries, shed, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if sc.Valid() {
			req.Header.Set(obs.TraceHeader, sc.HeaderValue())
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			cancel()
			lastErr = err // transport error (incl. timeout): transient, retry
			lastShed = false
			sleepFor = pol.backoffWith(attempt+1, jitter)
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			shed++
			c.shed.Inc()
			if !pol.Retry429 {
				// Legacy contract: the 429 is the caller's to handle,
				// counted but not retried.
				resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
				return resp, retries, shed, nil
			}
			ra, hasRA := retryAfterDelay(resp)
			lastErr = errFromResponse(resp)
			resp.Body.Close()
			cancel()
			lastShed = true
			if ctl != nil && ctl.Budget != nil && !ctl.Budget.Allow() {
				err := fmt.Errorf("cloud: retry budget exhausted after %d sheds: %v: %w", shed, lastErr, ErrShed)
				if c.log != nil {
					c.log.Error("cloud client dropping shed upload",
						"sheds", shed, "url", u,
						"trace_id", sc.Trace.String(), "err", lastErr)
				}
				return nil, retries, shed, err
			}
			if hasRA {
				// Honor the server's horizon, jittered upward by as much
				// as half again so a fleet shed together retries spread.
				sleepFor = ra + time.Duration(jitter(int64(ra)/2+1))
			} else {
				sleepFor = pol.backoffWith(attempt+1, jitter)
			}
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = errFromResponse(resp)
			resp.Body.Close()
			cancel()
			lastShed = false
			sleepFor = pol.backoffWith(attempt+1, jitter)
			continue
		}
		resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
		return resp, retries, shed, nil
	}
	err := fmt.Errorf("cloud: giving up after %d attempts: %w", pol.MaxAttempts, lastErr)
	if lastShed {
		err = fmt.Errorf("cloud: giving up after %d attempts: %v: %w", pol.MaxAttempts, lastErr, ErrShed)
	}
	if c.log != nil {
		c.log.Error("cloud client giving up",
			"attempts", pol.MaxAttempts, "url", u,
			"trace_id", sc.Trace.String(), "err", lastErr)
	}
	return nil, retries, shed, err
}

// BatchResult describes one batched upload's transport outcome.
type BatchResult struct {
	// Wire is the compressed bytes put on the wire.
	Wire units.Size
	// Retries is how many transient-failure retries the upload needed
	// (reported even when the call ultimately failed).
	Retries int
	// Shed is how many attempts the cloud answered 429 — deliberate
	// load shedding, reported apart from Retries so overload is never
	// misread as corruption or network failure.
	Shed int
}

// UploadBatch sends many sessions in one gzip'd request — the fleet's
// bulk ingest path. Returns the compressed bytes put on the wire.
func (c *Client) UploadBatch(game string, sessions []trace.SessionEvents) (units.Size, error) {
	br, err := c.UploadBatchTraced(game, sessions, obs.SpanContext{})
	return br.Wire, err
}

// UploadBatchTraced is UploadBatch with distributed-trace propagation
// and per-call retry accounting (the fleet's per-device health tallies
// feed on the latter).
func (c *Client) UploadBatchTraced(game string, sessions []trace.SessionEvents, sc obs.SpanContext) (BatchResult, error) {
	return c.UploadBatchControlled(game, sessions, sc, nil)
}

// UploadBatchControlled is UploadBatchTraced with per-call backpressure
// control: ctl carries the device's retry budget, sim-time sleep and
// deterministic jitter through the retry loop (see CallControl; nil is
// fine). A terminal shed fails with an ErrShed-wrapped error the fleet
// ledger counts apart from genuine failures.
func (c *Client) UploadBatchControlled(game string, sessions []trace.SessionEvents, sc obs.SpanContext, ctl *CallControl) (BatchResult, error) {
	var buf bytes.Buffer
	if err := trace.EncodeBatch(&buf, &trace.SessionBatch{Game: game, Sessions: sessions}); err != nil {
		return BatchResult{}, err
	}
	u := c.endpoint("/v1/upload-batch", url.Values{"game": {game}})
	resp, retries, shed, err := c.doCtl(http.MethodPost, u, "application/octet-stream", buf.Bytes(), sc, ctl)
	if err != nil {
		return BatchResult{Retries: retries, Shed: shed}, err
	}
	defer resp.Body.Close()
	if err := errFromResponse(resp); err != nil {
		return BatchResult{Retries: retries, Shed: shed}, err
	}
	return BatchResult{Wire: units.Size(buf.Len()), Retries: retries, Shed: shed}, nil
}

// Rebuild asks the cloud to retrain and build a fresh table.
func (c *Client) Rebuild(game string) error {
	u := c.endpoint("/v1/rebuild", url.Values{"game": {game}})
	resp, _, err := c.do(http.MethodPost, u, "text/plain", nil, obs.SpanContext{})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return errFromResponse(resp)
}

func errFromResponse(resp *http.Response) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
	return fmt.Errorf("cloud: %s: %s", resp.Status, bytes.TrimSpace(body))
}
